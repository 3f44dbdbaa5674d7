package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.util.Rng

/** Cell-level tables, keyed like the mask by (tid, attr): the baselines'
  * prediction table and the mask labels of their hand-labeled tuples.
  */
object CellTable {

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
      judge(tid, attrs.map(a => a -> r.getAs[String](a)).toMap).map { case (a, p) => (tid, a, p) }
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
      .map(r => r.getAs[Long]("tid") -> ds.attrs.map(a => a -> r.getAs[String](a)).toMap).toMap
    val isError = ds.mask.where(inLab).select("tid", "attr", "is_error").collect()
      .groupMap(_.getLong(0))(r => r.getString(1) -> r.getBoolean(2))
    tids.sorted.map(t => (t, rows(t), isError(t).toMap))
  }
}
