package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.{CellTable, EDataset}
import repro.llm.Criteria

/** dBoost [16]: statistical outlier detection with manually configured
  * models — Gaussian fences on numeric attributes plus histogram rarity on
  * value and generalized-pattern distributions. Per Table I it catches
  * pattern violations and outliers but not missing values (empty is just a
  * frequent histogram bin) and only structure-changing typos.
  */
object DBoost {

  val ZThreshold = 3.0
  val PatternRarity = 0.02
  val ValueRarity = 0.002
  /** Histogram rarity only applies to attributes whose domain is closed
    * enough for per-value statistics to mean something.
    */
  val MaxHistogramCardinality = 250

  def detect(spark: SparkSession, ds: EDataset): DataFrame = {
    val stats = ds.stats
    val n = stats.n.toDouble
    val valCounts = stats.valueCounts
    val distinctPerAttr = valCounts.keys.groupBy(_._1).view.mapValues(_.size).toMap

    // Gaussian model per numeric attribute.
    val gauss: Map[String, (Double, Double)] = ds.spec.numericAttrs.map { a =>
      val nums = valCounts.collect { case ((`a`, v), c) =>
        Criteria.parseNumber(v).map(x => (x * c, x * x * c, c.toLong))
      }.flatten
      val cnt = nums.map(_._3).sum.toDouble
      val mean = if (cnt == 0) 0.0 else nums.map(_._1).sum / cnt
      val varr = if (cnt == 0) 1.0 else math.max(1e-9, nums.map(_._2).sum / cnt - mean * mean)
      a -> (mean, math.sqrt(varr))
    }.toMap

    val numericAttrs = ds.spec.numericAttrs
    val flag = (attr: String, v: String) =>
      if (v.isEmpty) false // missing values are not dBoost's model
      else {
        val patRare = stats.patCount(attr, 2, v) / n < PatternRarity
        val lowCard = distinctPerAttr.getOrElse(attr, Int.MaxValue) <= MaxHistogramCardinality
        val valRare = lowCard && stats.valueCount(attr, v) / n < ValueRarity
        val zOut = numericAttrs.contains(attr) && {
          val (m, s) = gauss(attr)
          Criteria.parseNumber(v).exists(x => math.abs(x - m) > ZThreshold * s)
        }
        patRare || valRare || zOut
      }
    CellTable.predictions(spark, ds.tuples)((_, row) =>
      row.collect { case (a, v) if flag(a, v) => a })
  }
}
