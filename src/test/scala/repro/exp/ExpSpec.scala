package repro.exp

import repro.SparkSpec
import repro.core.{PRF, ZeroEDConfig}

class ExpSpec extends SparkSpec {

  test("Fmt renders a markdown table") {
    val t = Fmt.table(Seq("a", "b"), Seq(Seq("1", "2"), Seq("3", "4")))
    assert(t.linesIterator.size == 4)
    assert(t.contains("| 1 | 2 |"))
  }

  test("Fmt prf cells are 3-decimal triples") {
    val c = Fmt.prfCell(PRF(1, 1, 0, 0))
    assert(c == "0.500/1.000/0.667")
  }

  test("paper numbers cover all methods and datasets of Table III") {
    TableIII.methods.foreach { m =>
      assert(PaperNumbers.tableIII.contains(m), m)
    }
    PaperNumbers.tableIII.values.foreach(ds => assert(ds.size == 6))
  }

  test("paper numbers cover the ablations, models, and clusterings") {
    assert(PaperNumbers.tableIV.keySet ==
      Set("w/o Guid.", "w/o Crit.", "w/o Corr.", "w/o Veri.", "ZeroED"))
    assert(PaperNumbers.tableV.keySet == TableV.models.toSet)
    assert(PaperNumbers.tableVI.keySet == Set("random", "agc", "kmeans"))
  }

  test("TableII harness computes stats at reduced scale") {
    val rows = TableII.run(spark, names = Seq("hospital"), sc = 0.2)
    assert(rows.size == 1)
    val r = rows.head
    assert(r.tuples == 200 && r.attrs == 20)
    assert(math.abs(r.err - (r.mv + r.pv + r.t + r.o + r.rv)) < 1e-9)
    assert(TableII.render(rows).contains("hospital"))
  }

  test("Runner caches datasets and ZeroED results") {
    val d1 = Runner.dataset(spark, "hospital", 0.2)
    val d2 = Runner.dataset(spark, "hospital", 0.2)
    assert(d1 eq d2)
    val z1 = Runner.zeroed(spark, "hospital", sc = 0.2)
    val z2 = Runner.zeroed(spark, "hospital", sc = 0.2)
    assert(z1 eq z2)
  }

  test("Runner keys the ZeroED cache on the whole config") {
    val z1 = Runner.zeroed(spark, "hospital", sc = 0.2)
    val z5 = Runner.zeroed(spark, "hospital", ZeroEDConfig(batchSize = 5), sc = 0.2)
    assert(z5.inputTokens != z1.inputTokens)
  }

  test("TableJob rejects an unknown or missing table name, listing the valid ones") {
    Seq(Seq.empty, Seq("VII"), Seq("II", "III")).foreach { args =>
      val e = intercept[IllegalArgumentException](repro.jobs.TableJob.table(args))
      assert(e.getMessage.contains("II|III|IV|V|VI"), e.getMessage)
    }
    Seq("II", "III", "IV", "V", "VI").foreach(t => repro.jobs.TableJob.table(Seq(t)))
  }

  test("Runner baseline leaves no RDD persisted") {
    Runner.dataset(spark, "flights", 0.1)
    val before = spark.sparkContext.getPersistentRDDs.keySet.toSet
    Runner.baseline(spark, "fm_ed", "flights", 0.1)
    val after = spark.sparkContext.getPersistentRDDs.keySet.toSet
    assert(after == before, s"left RDDs ${after -- before} persisted")
  }

  test("Runner baseline dispatch rejects unknown methods") {
    intercept[IllegalArgumentException](Runner.baseline(spark, "nope", "hospital", 0.2))
  }
}
