package repro.data

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{BooleanType, LongType, StringType, StructField, StructType}
import repro.util.Rng

/** Cell-level tables, keyed like the mask by (tid, attr): the dirty tuples on
  * the driver, the baselines' prediction tables and the mask labels of their
  * hand-labeled tuples.
  *
  * A prediction table holds only the cells a method flags, as
  * (tid, attr, pred = true) rows; `Metrics.evaluate` scores every other cell
  * of the mask as clean, and scores a loaded mask without reading it. It is
  * a local DataFrame built on the driver, whose plan is the rows themselves:
  * `Metrics.evaluate` reads them from that plan and runs no query.
  */
object CellTable {

  /** Every tuple of `dirty` as (tid, attr→value), sorted by tid, in one collect:
    * the same order however `dirty` is partitioned.
    */
  def tuples(dirty: DataFrame, attrs: Seq[String]): Array[(Long, Map[String, String])] =
    dirty.collect().map(r => r.getAs[Long]("tid") -> values(r, attrs)).sortBy(_._1)

  private def values(r: Row, attrs: Seq[String]): Map[String, String] =
    attrs.map(a => a -> r.getAs[String](a)).toMap

  private val PredSchema = StructType(Seq(
    StructField("tid", LongType, nullable = false),
    StructField("attr", StringType),
    StructField("pred", BooleanType, nullable = false)))

  /** The prediction table of `cells`: one (tid, attr, pred = true) row per
    * flagged cell, in the order given, as a local DataFrame. Building it
    * starts no Spark job, and scoring it with `Metrics.evaluate` runs no
    * query.
    */
  def flagged(spark: SparkSession, cells: IterableOnce[(Long, String)]): DataFrame = {
    val rows = new java.util.ArrayList[Row]()
    cells.iterator.foreach { case (tid, attr) => rows.add(Row(tid, attr, true)) }
    spark.createDataFrame(rows, PredSchema)
  }

  /** The prediction table of the attributes `judge` flags in each tuple,
    * given its tid and attr→value map: each tuple is judged on the driver, in
    * tid order, and its flagged cells go to `flagged`.
    */
  def predictions(spark: SparkSession, tuples: Array[(Long, Map[String, String])])(
      judge: (Long, Map[String, String]) => Iterable[String]): DataFrame =
    flagged(spark, tuples.iterator.flatMap { case (tid, row) => judge(tid, row).map(tid -> _) })

  /** The tuples a baseline has labeled by hand: `count` tids drawn from the
    * dataset's tuples under `key` (duplicates drawn once), each with its
    * values and its mask labels (attr → is_error), in tid order.
    */
  def labeled(ds: EDataset, key: String,
              count: Int): Seq[(Long, Map[String, String], Map[String, Boolean])] = {
    val n = ds.tuples.length
    val tids = (0 until count).map(i => Rng.int(n, ds.name, key, i).toLong).toSet
    ds.tuples.toSeq.collect { case (t, row) if tids(t) =>
      (t, row, ds.attrs.map(a => a -> ds.errTypes.contains((t, a))).toMap)
    }
  }
}
