package repro.data

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.util.Rng

/** Cell-level tables, keyed like the mask by (tid, attr): the dirty tuples on
  * the driver, the baselines' prediction table and the mask labels of their
  * hand-labeled tuples.
  */
object CellTable {

  /** Every tuple of `dirty` as (tid, attr→value), sorted by tid, in one collect:
    * the same order however `dirty` is partitioned.
    */
  def tuples(dirty: DataFrame, attrs: Seq[String]): Array[(Long, Map[String, String])] =
    dirty.collect().map(r => r.getAs[Long]("tid") -> values(r, attrs)).sortBy(_._1)

  private def values(r: Row, attrs: Seq[String]): Map[String, String] =
    attrs.map(a => a -> r.getAs[String](a)).toMap

  /** The (tid, attr, pred) rows `judge` gives each tuple from its tid and
    * attr→value map, judged on the driver, as a local DataFrame: building it,
    * and collecting it again, starts no Spark job.
    */
  def predictions(spark: SparkSession, tuples: Array[(Long, Map[String, String])])(
      judge: (Long, Map[String, String]) => Iterable[(String, Boolean)]): DataFrame = {
    import spark.implicits._
    tuples.toSeq.flatMap { case (tid, row) =>
      judge(tid, row).map { case (a, p) => (tid, a, p) }
    }.toDF("tid", "attr", "pred")
  }

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
