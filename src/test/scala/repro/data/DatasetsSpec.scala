package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestData}
import repro.core.{CellStats, FlatCellStats}

class DatasetsSpec extends SparkSpec {

  private lazy val ds = TestData.hospitalSmall(spark)

  test("unknown dataset name is rejected") {
    intercept[IllegalArgumentException](Datasets.load(spark, "nope"))
  }

  test("scale controls tuple count") {
    assert(ds.dirty.count() == 200) // hospital @0.2
  }

  test("dirty, clean and mask share the same tid domain") {
    assert(ds.dirty.select("tid").distinct().count() == 200)
    assert(ds.clean.select("tid").distinct().count() == 200)
    assert(ds.mask.select("tid").distinct().count() == 200)
  }

  test("mask has one row per cell") {
    assert(ds.mask.count() == 200L * ds.attrs.size)
  }

  test("mask err flags exactly the cells where dirty differs from clean") {
    val dirtyCells = CellTableSpec.cells(ds.dirty, ds.attrs)
      .withColumnRenamed("value", "dv")
    val cleanCells = CellTableSpec.cells(ds.clean, ds.attrs)
      .withColumnRenamed("value", "cv")
    val joined = dirtyCells.join(cleanCells, Seq("tid", "attr"))
      .join(ds.mask, Seq("tid", "attr"))
    val bad = joined.where((col("dv") =!= col("cv")) =!= col("is_error")).count()
    assert(bad == 0L)
  }

  test("error rate is near the spec target") {
    val errs = ds.mask.where(col("is_error")).count()
    val rate = 100.0 * errs / ds.mask.count()
    assert(math.abs(rate - ds.spec.rates.values.sum) < 2.0, s"rate=$rate")
  }

  test("every injected error type appears at reasonable proportion") {
    val byType = ds.mask.where(col("is_error"))
      .groupBy("err_type").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(byType.keySet.subsetOf(Set("MV", "T", "PV", "O", "RV")))
    // Hospital injects PV/T/O/RV (MV rate 0).
    assert(!byType.contains("MV"))
    Seq("PV", "T", "O", "RV").foreach(t => assert(byType.getOrElse(t, 0L) > 0, t))
  }

  test("generation is deterministic across loads") {
    val again = Datasets.load(spark, "hospital", 0.2)
    assert(again.dirty.orderBy("tid").collect().toSeq ==
           ds.dirty.orderBy("tid").collect().toSeq)
    again.unpersist()
  }

  test("unpersist releases every cache of a loaded dataset") {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.size
    val loaded = Datasets.load(spark, "flights", 0.05)
    loaded.mask.cache()
    loaded.dirty.count(); loaded.mask.count()
    assert(sc.getPersistentRDDs.size == before + 2)
    loaded.unpersist()
    assert(sc.getPersistentRDDs.size == before)
  }

  test("load reads the dirty tuples and error types, however wide is partitioned") {
    assert(ds.tuples.toSeq == CellTable.tuples(ds.dirty, ds.attrs).toSeq)
    assert(ds.errTypes == TestData.errorTypes(ds.mask))
    assert(ds.errTypes.nonEmpty)
    val Seq(one, six) = Seq(1, 6).map(n => Datasets.fromWide(ds.spec, ds.wide.repartition(n)))
    for (d <- Seq(one, six)) {
      assert(d.tuples.toSeq == ds.tuples.toSeq)
      assert(d.errTypes == ds.errTypes)
    }
  }

  test("stats are the counts of the tuples, with the FD pairs' co-occurrences") {
    for (d <- Seq(ds, TestData.flightsSmall(spark))) {
      val pairs = FD.pairs(d.spec.fds)
      val counted = FlatCellStats.count(CellTable.tuples(d.dirty, d.attrs), d.attrs, pairs)
      val stats = d.stats
      val flat = FlatCellStats.of(stats)
      assert(stats.n == counted.n, d.name)
      assert(flat.valueCounts == counted.valueCounts, d.name)
      assert(flat.patCounts == counted.patCounts, d.name)
      assert(flat.coCounts == counted.coCounts, d.name)
      assert(stats.coCounts.keySet == pairs.toSet, d.name)
      // A copy with other tuples counts them, not the loaded ones.
      val even = d.tuples.filter(_._1 % 2 == 0)
      val copy = d.copy(tuples = even)
      assert(copy.stats == CellStats.count(even, d.attrs, pairs), d.name)
      assert(copy.stats.n == even.length.toLong && copy.stats.n < stats.n, d.name)
    }
  }

  test("the truth recorded for a loaded mask is exactly the mask's cells") {
    val t = Datasets.truth(ds.mask).get
    assert(t.tids.toSeq == ds.tuples.map(_._1).toSeq && t.attrs == ds.attrs)
    assert(t.cellCount == ds.mask.count())
    def cells(m: DataFrame) =
      m.select("tid", "attr").collect().map(r => (r.getLong(0), r.getString(1))).toSet
    val maskCells = cells(ds.mask)
    assert(maskCells.size == t.cellCount && maskCells.forall(t.contains))
    // Off the table: a tid before the first and after the last, and an
    // attribute it does not have.
    val (first, last, attr) = (t.tids.head, t.tids.last, ds.attrs.head)
    for (c <- Seq((first - 1, attr), (last + 1, attr), (first, "no-such-attr"), (first, null)))
      assert(!t.contains(c), c.toString)
    assert(t.errors == cells(ds.mask.where(col("is_error"))))
    // Each load records its own mask; a derived mask has no record.
    val again = Datasets.fromWide(ds.spec, ds.wide)
    assert(Datasets.truth(again.mask).exists(a => (a ne t) && a.errors == again.errTypes.keySet))
    assert(Datasets.truth(ds.mask.select("*")).isEmpty)
  }

  test("oracle: per-type error counts match DuckDB over the mask") {
    val agg = ds.mask.groupBy("err_type").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(agg,
      "SELECT err_type, count(1) AS n FROM mask GROUP BY err_type",
      "mask" -> ds.mask)
  }

  test("oracle: dirty-vs-clean diff count matches DuckDB") {
    val dirtyCells = CellTableSpec.cells(ds.dirty, ds.attrs).withColumnRenamed("value", "dv")
    val cleanCells = CellTableSpec.cells(ds.clean, ds.attrs).withColumnRenamed("value", "cv")
    val spark2 = dirtyCells.join(cleanCells, Seq("tid", "attr"))
      .where(col("dv") =!= col("cv"))
      .agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(spark2,
      """SELECT count(1) AS n
        |FROM d JOIN c ON d.tid = c.tid AND d.attr = c.attr
        |WHERE d.dv <> c.cv""".stripMargin,
      "d" -> dirtyCells, "c" -> cleanCells)
  }

  test("comparison registry excludes tax") {
    assert(Datasets.comparisonNames.size == 6)
    assert(!Datasets.comparisonNames.contains("tax"))
  }
}
