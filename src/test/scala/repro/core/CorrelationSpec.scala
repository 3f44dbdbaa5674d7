package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestData}
import repro.data.CellTableSpec

class CorrelationSpec extends SparkSpec {

  test("entropy of a constant column is 0") {
    assert(Correlation.entropy(Seq("a", "a", "a")) == 0.0)
  }

  test("entropy of a uniform binary column is ln 2") {
    assert(math.abs(Correlation.entropy(Seq("a", "b", "a", "b")) - math.log(2)) < 1e-9)
  }

  test("NMI of identical columns is 1") {
    val xs = Seq("a", "b", "c", "a", "b", "c")
    assert(math.abs(Correlation.nmi(xs, xs) - 1.0) < 1e-9)
  }

  test("NMI of a deterministic mapping is 1") {
    val xs = Seq("a", "b", "c", "a", "b", "c")
    val ys = xs.map(_.toUpperCase)
    assert(math.abs(Correlation.nmi(xs, ys) - 1.0) < 1e-9)
  }

  test("NMI of independent columns is near 0") {
    val n = 4000
    val xs = (0 until n).map(i => s"x${repro.util.Rng.int(4, "cx", i)}")
    val ys = (0 until n).map(i => s"y${repro.util.Rng.int(4, "cy", i)}")
    assert(Correlation.nmi(xs, ys) < 0.03)
  }

  test("NMI with a constant column is 0") {
    assert(Correlation.nmi(Seq("a", "b"), Seq("k", "k")) == 0.0)
  }

  test("mutual information is symmetric") {
    val xs = Seq("a", "b", "a", "c", "b", "a")
    val ys = Seq("1", "2", "1", "3", "1", "2")
    assert(math.abs(Correlation.mutualInformation(xs, ys) -
                    Correlation.mutualInformation(ys, xs)) < 1e-12)
  }

  test("topK surfaces FD partners on hospital") {
    val ds = TestData.hospitalSmall(spark)
    val top = Correlation.topK(ds.dirty, ds.attrs, 2)
    assert(top("condition").contains("measure_code") ||
           top("condition").contains("measure_name"),
           s"condition correlates with ${top("condition")}")
    assert(top.values.forall(_.size == 2))
  }

  test("topK respects k and excludes self") {
    val ds = TestData.flightsSmall(spark)
    val top = Correlation.topK(ds.dirty, ds.attrs, 3)
    top.foreach { case (a, qs) =>
      assert(qs.size == 3)
      assert(!qs.contains(a))
    }
  }

  test("topK's pair scores equal nmi of each pair, bit for bit, on hospital and flights") {
    for (ds <- Seq(TestData.hospitalSmall(spark), TestData.flightsSmall(spark))) {
      val cols = Correlation.sampleColumns(ds.tuples, ds.attrs)
      val scores = Correlation.pairScores(cols, ds.attrs)
      assert(scores.size == ds.attrs.size * (ds.attrs.size - 1) / 2)
      scores.foreach { case ((a, b), got) =>
        val want = Correlation.nmi(cols(a), cols(b))
        assert(got == want, s"${ds.name}: NMI($a, $b) $got != $want")
      }
    }
  }

  test("oracle: co-occurrence counts behind NMI match DuckDB") {
    val ds = TestData.hospitalSmall(spark)
    val co = ds.dirty.groupBy("city", "state").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(co,
      "SELECT city, state, count(1) AS n FROM dirty GROUP BY city, state",
      "dirty" -> ds.dirty)
  }

  test("oracle: marginal counts match DuckDB via the cell table") {
    val ds = TestData.flightsSmall(spark)
    val cells = CellTableSpec.cells(ds.dirty, ds.attrs)
    val marg = cells.groupBy("attr").agg(countDistinct(col("value")).as("n"))
    Oracle.assertEquivalent(marg,
      "SELECT attr, count(DISTINCT value) AS n FROM cells GROUP BY attr",
      "cells" -> cells)
  }
}
