package repro.data

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
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

  /** The (tid, attr, pred) rows `judge` gives each dirty tuple from its tid
    * and attr→value map, in one pass over the tuples. `judge` runs on the
    * executors, so it must not capture `ds`.
    */
  def predict(ds: EDataset)(
      judge: (Long, Map[String, String]) => Iterable[(String, Boolean)]): DataFrame = {
    val spark = ds.dirty.sparkSession
    import spark.implicits._
    val attrs = ds.attrs
    ds.dirty.flatMap { r =>
      val tid = r.getAs[Long]("tid")
      judge(tid, values(r, attrs)).map { case (a, p) => (tid, a, p) }
    }.toDF("tid", "attr", "pred")
  }

  /** The tuples a baseline has labeled by hand: `count` tids drawn from the
    * `n` tuples under `key` (duplicates drawn once), each with its values and
    * its mask labels (attr → is_error), in tid order.
    */
  def labeledTuples(ds: EDataset, n: Long, key: String,
                    count: Int): Seq[(Long, Map[String, String], Map[String, Boolean])] = {
    val tids = (0 until count).map(i => Rng.int(n.toInt, ds.name, key, i).toLong).distinct
    val inLab = col("tid").isin(tids: _*)
    val rows = ds.dirty.where(inLab).collect()
      .map(r => r.getAs[Long]("tid") -> values(r, ds.attrs)).toMap
    val isError = ds.mask.where(inLab).select("tid", "attr", "is_error").collect()
      .groupMap(_.getLong(0))(r => r.getString(1) -> r.getBoolean(2))
    tids.sorted.map(t => (t, rows(t), isError(t).toMap))
  }
}
