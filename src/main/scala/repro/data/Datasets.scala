package repro.data

import com.google.common.collect.MapMaker
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.CellStats

/** One materialized evaluation dataset: the dirty table the detectors see,
  * the clean ground truth, and the per-cell error mask derived from injection.
  *
  * All three are plain DataFrames keyed by `tid`; every attribute cell is a
  * string (ED literature convention — detectors must not rely on typed
  * schemas the dirty data would not have). All three are views of `wide`,
  * the cached table generation fills once.
  *
  * `tuples` and `errTypes` are the driver-side forms that ZeroED and the
  * baselines read, filled by one collect of `wide` at load: every dirty tuple
  * as (tid, attr→value), sorted by tid (the form of `CellTable.tuples`), and
  * the ground truth, the err_type of each erroneous (tid, attr) cell (the
  * form of `SimLLM.errorTypes`).
  *
  * `stats` are the cell statistics of `tuples` that ZeroED's features and the
  * statistical baselines read: n, the value and L1–L3 pattern counts, and the
  * co-occurrences of the spec's FD pairs. `fromWide` counts them at load; a
  * copy with other `tuples` counts its own on first use.
  */
final case class EDataset(spec: DatasetSpec, dirty: DataFrame,
                          clean: DataFrame, mask: DataFrame, wide: DataFrame,
                          tuples: Array[(Long, Map[String, String])],
                          errTypes: Map[(Long, String), String]) {
  def name: String = spec.name
  def attrs: IndexedSeq[String] = spec.attrNames

  lazy val stats: CellStats = CellStats.count(tuples, attrs, FD.pairs(spec.fds))

  /** Release the cached `wide` table and any cache a caller added to
    * `dirty`, `clean` or `mask`.
    */
  def unpersist(): Unit = Seq(dirty, clean, mask, wide).foreach(_.unpersist())
}

/** What a mask built at load holds, read from the same collect as `tuples`
  * and `errTypes`: one cell per tid (of `tids`, sorted) and attr, an error
  * exactly when it is in `errors` (the keys of `errTypes`, not a copy).
  */
final case class MaskTruth(tids: Array[Long], attrs: IndexedSeq[String],
                           errors: Set[(Long, String)]) {
  /** The number of cells: |tids| × |attrs|. */
  def cellCount: Long = tids.length.toLong * attrs.size

  /** Whether the mask holds the cell `(tid, attr)`. */
  def contains(cell: (Long, String)): Boolean =
    attrs.contains(cell._2) && java.util.Arrays.binarySearch(tids, cell._1) >= 0
}

object Datasets {

  /** The truth of each mask `fromWide` built, keyed by the mask object itself
    * (by reference), held only while the mask is reachable.
    */
  private val truths = new MapMaker().weakKeys().makeMap[DataFrame, MaskTruth]()

  /** The truth `mask` was built against, if a load built this very object
    * (a mask derived from it with `where`, `select` and so on has none).
    */
  private[repro] def truth(mask: DataFrame): Option[MaskTruth] = Option(truths.get(mask))

  val byName: Map[String, DatasetSpec] = CleanGen.all.map(s => s.name -> s).toMap

  /** The six datasets of the comparison tables (Tax is stats/scalability only). */
  val comparisonNames: Seq[String] =
    Seq("hospital", "flights", "beers", "rayyan", "billionaire", "movies")

  /** Generate a dataset. `scale` multiplies the paper's tuple count (1.0 =
    * paper size); generation is a single distributed deterministic pass that
    * emits clean values, dirty values and error types together.
    */
  def load(spark: SparkSession, name: String, scale: Double = 1.0): EDataset =
    generate(spark, byName.getOrElse(name,
      throw new IllegalArgumentException(s"unknown dataset $name; known: ${byName.keys}")), scale)

  def generate(spark: SparkSession, spec: DatasetSpec, scale: Double = 1.0): EDataset = {
    val n = math.max(50L, math.round(spec.nTuples * scale))
    val rvDomains = Schema.fdRhsDomains(spec)
    val elig      = ErrorInjector.eligible(spec)
    val attrs     = spec.attrNames

    val rowRdd = spark.range(n).rdd.map { i =>
      val clean = Schema.genRow(spec, i)
      val (dirty, etypes) = ErrorInjector.injectRow(spec, i, clean, rvDomains, elig)
      Row.fromSeq(i +: (clean ++ dirty ++ etypes))
    }
    val fields = StructField("tid", LongType, nullable = false) +:
      (attrs.map(a => StructField(s"c_$a", StringType, nullable = false)) ++
       attrs.map(a => StructField(s"d_$a", StringType, nullable = false)) ++
       attrs.map(a => StructField(s"e_$a", StringType, nullable = false)))
    fromWide(spec, spark.createDataFrame(rowRdd, StructType(fields)).cache())
  }

  /** The dataset whose tables are views of `wide`, with its driver-side
    * forms read in one collect of `wide`'s tid, dirty and error-type columns,
    * its cell statistics counted, and its mask recorded against that truth.
    */
  private[repro] def fromWide(spec: DatasetSpec, wide: DataFrame): EDataset = {
    val attrs = spec.attrNames
    val clean = wide.select(col("tid") +: attrs.map(a => col(s"c_$a").as(a)): _*)
    val dirty = wide.select(col("tid") +: attrs.map(a => col(s"d_$a").as(a)): _*)
    val stackArgs = attrs.map(a => s"'$a', e_$a").mkString(", ")
    val mask = wide
      .selectExpr("tid", s"stack(${attrs.size}, $stackArgs) as (attr, err_type)")
      .withColumn("is_error", col("err_type") =!= lit(""))

    // Columns 1..|A| are the dirty values, |A|+1..2|A| the error types.
    val rows = wide.select(col("tid") +: (attrs.map(a => col(s"d_$a")) ++
                                          attrs.map(a => col(s"e_$a"))): _*)
      .collect().sortBy(_.getLong(0))
    val tuples = rows.map(r =>
      r.getLong(0) -> attrs.indices.map(j => attrs(j) -> r.getString(1 + j)).toMap)
    val errTypes = rows.flatMap { r =>
      attrs.indices.map(j => (r.getLong(0), attrs(j)) -> r.getString(1 + attrs.size + j))
        .filter(_._2.nonEmpty)
    }.toMap
    truths.put(mask, MaskTruth(tuples.map(_._1), attrs, errTypes.keySet))
    val ds = EDataset(spec, dirty, clean, mask, wide, tuples, errTypes)
    ds.stats
    ds
  }
}
