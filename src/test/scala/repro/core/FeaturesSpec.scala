package repro.core

import org.apache.spark.ml.linalg.DenseVector
import org.apache.spark.sql.catalyst.plans.logical.Union
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestData}
import repro.data.{CellTable, CellTableSpec}
import repro.llm.ModelProfiles
import repro.util.TokenMeter

class FeaturesSpec extends SparkSpec {

  private lazy val ds = TestData.hospitalSmall(spark)
  private lazy val corr = Correlation.topK(ds.dirty, ds.attrs, 2)
  private lazy val meter = TokenMeter.local()
  private lazy val model =
    FeatureModel.fit(spark, ds, corr, ModelProfiles.qwen72b, meter, FeatureOpts())

  test("dimensions follow dim(f_base) x (1 + k)") {
    assert(model.baseDim == 2 + 3 + Embedding.Dim + repro.llm.Criteria.MaxPerAttr)
    assert(model.totalDim == model.baseDim * 3)
  }

  test("value frequency matches the dataset") {
    val city = ds.dirty.select("city").collect().map(_.getString(0))
    val top = city.groupBy(identity).maxBy(_._2.size)
    assert(math.abs(model.valueFreq("city", top._1) -
                    top._2.size.toDouble / city.length) < 1e-9)
    assert(model.valueFreq("city", "no-such-city") == 0.0)
  }

  test("oracle: fitted value counts match DuckDB") {
    val cells = CellTableSpec.cells(ds.dirty, ds.attrs)
    val vc = cells.groupBy("attr", "value").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(vc,
      "SELECT attr, value, count(1) AS n FROM cells GROUP BY attr, value",
      "cells" -> cells)
    // and the model's map is exactly that aggregation
    val fromDf = vc.collect().map(r => (r.getString(0), r.getString(1)) -> r.getLong(2)).toMap
    assert(model.stats.valueCounts == fromDf)
  }

  test("oracle: fitted pattern counts match a groupBy on the cell table") {
    import spark.implicits._
    val pats = CellTableSpec.cells(ds.dirty, ds.attrs).as[(Long, String, String)]
      .flatMap { case (_, a, v) => Patterns.all(v).zipWithIndex.map { case (p, i) => (a, i + 1, p) } }
      .toDF("attr", "lvl", "pat")
      .groupBy("attr", "lvl", "pat").count()
    val fromDf = pats.collect()
      .map(r => (r.getString(0), r.getInt(1), r.getString(2)) -> r.getLong(3)).toMap
    assert(model.stats.patCounts == fromDf)
  }

  test("oracle: fitted co-occurrence counts match DuckDB") {
    import spark.implicits._
    val cells = CellTableSpec.cells(ds.dirty, ds.attrs)
    val pairs = model.corr.toSeq.flatMap { case (a, qs) => qs.take(model.opts.corrK).map(a -> _) }
      .toDF("attr", "other")
    val c1 = cells.toDF("tid", "attr", "value")
    val c2 = cells.toDF("tid", "other", "otherValue")
    val co = c1.join(c2, "tid").join(pairs, Seq("attr", "other"))
      .groupBy("attr", "value", "other", "otherValue").agg(count(lit(1)).as("n"))
    val fromDf = co.collect().map(r =>
      (r.getString(0), r.getString(1), r.getString(2), r.getString(3)) -> r.getLong(4)).toMap
    assert(model.stats.coCounts == fromDf)
    val fitted = model.stats.coCounts.toSeq.map { case ((a, v, q, w), n) => (a, v, q, w, n) }
      .toDF("attr", "value", "other", "otherValue", "n")
    Oracle.assertEquivalent(fitted,
      """SELECT c1.attr AS attr, c1.value AS value, c2.attr AS other,
        |       c2.value AS otherValue, count(1) AS n
        |FROM cells c1 JOIN cells c2 ON c1.tid = c2.tid
        |JOIN pairs p ON p.attr = c1.attr AND p.other = c2.attr
        |GROUP BY c1.attr, c1.value, c2.attr, c2.value""".stripMargin,
      "cells" -> cells, "pairs" -> pairs)
  }

  test("fit reads the dataset's value and pattern counts and counts only the correlated pairs") {
    assert(model.stats.valueCounts eq ds.stats.valueCounts)
    assert(model.stats.patCounts eq ds.stats.patCounts)
    assert(model.stats.n == ds.stats.n)
    val pairs = corr.toSeq.flatMap { case (a, qs) => qs.take(model.opts.corrK).map(a -> _) }
    assert(model.stats.coCounts == CellStats.coCounts(ds.tuples, pairs))
    val noCorr = FeatureModel.fit(ds, ds.tuples, corr, ModelProfiles.qwen72b, TokenMeter.local(),
                                  FeatureOpts(useCorr = false, useCriteria = false))
    assert(noCorr.stats.coCounts.isEmpty && (noCorr.stats.valueCounts eq ds.stats.valueCounts))
    intercept[IllegalArgumentException](FeatureModel.fit(ds, ds.tuples.take(10), corr,
      ModelProfiles.qwen72b, TokenMeter.local(), FeatureOpts(useCriteria = false)))
  }

  test("distribution analysis equals a scan of each attribute's counts") {
    val n = model.stats.n
    for (a <- ds.attrs) {
      val vc = model.stats.valueCounts.collect { case ((`a`, v), c) => (v, c) }.toSeq
      val pc = model.stats.patCounts.collect { case ((`a`, 2, p), c) => (p, c) }.toSeq
      val nums = vc.flatMap { case (v, c) => repro.llm.Criteria.parseNumber(v).map(_ -> c) }
      val numRange =
        if (nums.map(_._2).sum >= 0.8 * n) Some((nums.map(_._1).min, nums.map(_._1).max))
        else None
      assert(model.dists(a) == repro.llm.AttrDist(a, n,
        vc.sortBy { case (v, c) => (-c, v) }.take(10),
        pc.sortBy { case (p, c) => (-c, p) }.take(10),
        numRange, vc.count(_._2 == 1L)), a)
    }
  }

  test("pattern frequency reflects the dominant format") {
    // clean zips are 5 digits: the D[5] pattern dominates
    assert(model.patternFreq("zip", 2, "12345") > 0.8)
    assert(model.patternFreq("zip", 2, "1234x") < 0.2)
  }

  test("pattern counts cover all three levels") {
    assert(Seq(1, 2, 3).forall(l => model.stats.patCounts.keys.exists(_._2 == l)))
  }

  test("vicinity frequency is high for consistent FD pairs") {
    val row = ds.dirty.where(col("tid") === 1L).collect()(0)
    val rowMap = ds.attrs.map(a => a -> row.getAs[String](a)).toMap
    // state given city should be deterministic in mostly-clean data
    if (corr("state").contains("city")) {
      val vf = model.vicinityFreq("state", rowMap("state"), rowMap)
      assert(vf >= 0.0 && vf <= 1.0)
    }
  }

  test("criteria vector is binary, padded with passes") {
    val row = ds.dirty.where(col("tid") === 2L).collect()(0)
    val rowMap = ds.attrs.map(a => a -> row.getAs[String](a)).toMap
    val cv = model.criteriaVec("zip", rowMap("zip"), rowMap)
    assert(cv.length == repro.llm.Criteria.MaxPerAttr)
    assert(cv.forall(x => x == 0.0 || x == 1.0))
    val nCrit = model.criteria("zip").size
    (nCrit until cv.length).foreach(i => assert(cv(i) == 1.0))
  }

  test("criteria disabled yields an all-zero criteria block") {
    val m2 = new FeatureModel(model.dsName, model.attrs, model.corr, model.stats,
      model.criteria, model.dists, FeatureOpts(useCriteria = false))
    assert(m2.criteriaVec("zip", "12345", Map.empty).forall(_ == 0.0))
  }

  test("useCorr=false removes the correlated blocks") {
    val m2 = new FeatureModel(model.dsName, model.attrs,
      model.attrs.map(_ -> Seq.empty[String]).toMap,
      model.stats.copy(coCounts = Map.empty), model.criteria,
      model.dists, FeatureOpts(useCorr = false))
    assert(m2.totalDim == m2.baseDim)
    assert(m2.vicinityFreq("zip", "12345", Map.empty) == 0.0)
  }

  test("finalVec embeds the base vector as its first block") {
    val row = ds.dirty.where(col("tid") === 3L).collect()(0)
    val rowMap = ds.attrs.map(a => a -> row.getAs[String](a)).toMap
    val fv = model.finalVec("city", rowMap)
    val bv = model.baseVec("city", rowMap)
    assert(fv.take(model.baseDim).toSeq == bv.toSeq)
    assert(fv.length == model.totalDim)
  }

  test("transform produces one featurized row per cell") {
    val cellsF = FeatureModel.transform(spark, ds, model)
    assert(cellsF.count() == ds.dirty.count() * ds.attrs.size)
    val v = cellsF.where(col("attr") === "city" && col("tid") === 0L)
      .select("features").collect()(0).getAs[DenseVector](0)
    assert(v.size == model.totalDim)
  }

  test("transform is one pass over the tuples, not a union of per-attribute selects") {
    val plan = FeatureModel.transform(spark, ds, model).queryExecution.optimizedPlan
    assert(plan.collect { case u: Union => u }.isEmpty, plan.treeString)
  }

  test("transform agrees with driver-side finalVec") {
    val rows = ds.dirty.collect().map { r =>
      r.getAs[Long]("tid") -> ds.attrs.map(a => a -> r.getAs[String](a)).toMap
    }.toMap
    val got = FeatureModel.transform(spark, ds, model).collect()
    assert(got.length == rows.size * ds.attrs.size)
    assert(got.map(r => (r.getAs[Long]("tid"), r.getAs[String]("attr"))).toSet.size == got.length)
    got.foreach { r =>
      val (tid, attr) = (r.getAs[Long]("tid"), r.getAs[String]("attr"))
      assert(r.getAs[String]("value") == rows(tid)(attr))
      assert(r.getAs[DenseVector]("features").toArray.toSeq ==
             model.finalVec(attr, rows(tid)).toSeq, s"tid $tid attr $attr")
    }
  }

  test("distribution analysis exposes top values and rare counts") {
    val d = model.dists("measure_code")
    assert(d.n == ds.dirty.count())
    assert(d.topValues.nonEmpty)
    assert(d.topValues.head._2 >= d.topValues.last._2)
    val sc = model.dists("score")
    assert(sc.numericRange.isDefined)
  }

  test("criteria reasoning consumed tokens") {
    model // force
    assert(meter.inputTokens > 0 && meter.outputTokens > 0)
  }

  test("sampleTuples returns full attr maps") {
    val s = FeatureModel.sampleTuples(ds.name, CellTable.tuples(ds.dirty, ds.attrs), 10)
    assert(s.nonEmpty && s.size <= 10)
    s.foreach(m => assert(m.keySet == ds.attrs.toSet))
  }
}
