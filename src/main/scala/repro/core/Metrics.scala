package repro.core

import org.apache.spark.sql.DataFrame

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
    * (tid, attr, is_error). Each table is collected through its own plan, its
    * columns found by name, and the flagged cells are picked out on the
    * driver, then `count`ed. Only the mask's cells are scored; a cell without
    * a prediction, or with a null `pred`, counts as clean. So a prediction
    * table may hold only its flagged cells, as the baselines' tables do.
    */
  def evaluate(pred: DataFrame, mask: DataFrame): PRF = {
    val flagged = marked(pred, "pred").collect { case (c, true) => c }.toSet
    val cells = marked(mask, "is_error")
    count(cells.map { case (c, _) => c -> flagged(c) }, cells.collect { case (c, true) => c }.toSet)
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
