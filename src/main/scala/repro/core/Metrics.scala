package repro.core

import org.apache.spark.sql.DataFrame
import repro.data.Datasets

/** Cell-level detection quality (Section IV-A): precision, recall, F1 over
  * the ground-truth error mask.
  */
final case class PRF(tp: Long, fp: Long, fn: Long, tn: Long) {
  def precision: Double = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
  def recall: Double    = if (tp + fn == 0) 0.0 else tp.toDouble / (tp + fn)
  def f1: Double = {
    val p = precision; val r = recall
    if (p + r == 0) 0.0 else 2 * p * r / (p + r)
  }
  override def toString: String = f"P=$precision%.3f R=$recall%.3f F1=$f1%.3f"
}

object Metrics {

  /** Evaluate predictions (tid, attr, pred) against the mask
    * (tid, attr, is_error). The prediction table is collected through its own
    * plan, its columns found by name, and its flagged cells are picked out on
    * the driver, then `count`ed against the mask's cells. Only the mask's
    * cells are scored; a cell without a prediction, or with a null `pred`,
    * counts as clean. So a prediction table may hold only its flagged cells,
    * as the baselines' tables do.
    *
    * A mask that a load built (`ds.mask` itself) is not read: its cells and
    * errors are the ones `Datasets` recorded for that mask object at load, so
    * scoring starts no Spark job when `pred` is local. The record follows the
    * mask, not the dataset: `ds.copy(errTypes = …)` that keeps `ds.mask` is
    * still scored by what the mask holds. Any other mask (derived with
    * `where` or `select`, or built by hand) is collected.
    */
  def evaluate(pred: DataFrame, mask: DataFrame): PRF = {
    val flagged = marked(pred, "pred").collect { case (c, true) => c }.toSet
    val (cells, errors) = Datasets.truth(mask) match {
      case Some(t) => (t.cells.toSeq, t.errors)
      case None =>
        val rows = marked(mask, "is_error")
        (rows.toSeq.map(_._1), rows.collect { case (c, true) => c }.toSet)
    }
    count(cells.map(c => c -> flagged(c)), errors)
  }

  /** Each row of `df` as its cell (tid, attr) and whether its column `flag`
    * is true (a null is not).
    */
  private def marked(df: DataFrame, flag: String): Array[((Long, String), Boolean)] = {
    val schema = df.schema
    val (t, a, f) = (schema.fieldIndex("tid"), schema.fieldIndex("attr"), schema.fieldIndex(flag))
    df.collect().map(r => (r.getLong(t), r.getString(a)) -> (!r.isNullAt(f) && r.getBoolean(f)))
  }

  /** Driver-side counts of one prediction per cell; an unpredicted error is missed. */
  def count(pred: Iterable[((Long, String), Boolean)], errors: Set[(Long, String)]): PRF = {
    val (flagged, clean) = pred.partition(_._2)
    val tp = flagged.count(p => errors(p._1))
    PRF(tp, flagged.size - tp, errors.size - tp, clean.count(p => !errors(p._1)))
  }
}
