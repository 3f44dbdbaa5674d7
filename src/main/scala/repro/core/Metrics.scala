package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._

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

  /** The confusion counts of `pred` against the mask, one per group of the
    * mask's `by` columns. Cells without a prediction count as clean.
    */
  private def confusion(pred: DataFrame, mask: DataFrame, by: String*): Array[(Row, PRF)] = {
    val (e, p, k) = (col("is_error"), coalesce(col("pred"), lit(false)), by.size)
    val n = (c: Column) => sum(when(c, 1L).otherwise(0L))
    mask.select("tid", "attr" +: "is_error" +: by: _*)
      .join(pred.select("tid", "attr", "pred"), Seq("tid", "attr"), "left")
      .groupBy(by.map(col): _*).agg(n(e && p), n(!e && p), n(e && !p), n(!e && !p))
      .collect().map(r => r -> PRF(r.getLong(k), r.getLong(k + 1), r.getLong(k + 2), r.getLong(k + 3)))
  }

  /** Evaluate predictions (tid, attr, pred) against the mask
    * (tid, attr, is_error). Cells without a prediction count as clean.
    */
  def evaluate(pred: DataFrame, mask: DataFrame): PRF = confusion(pred, mask)(0)._2

  /** Driver-side counts of one prediction per cell; an unpredicted error is missed. */
  def count(pred: Iterable[((Long, String), Boolean)], errors: Set[(Long, String)]): PRF = {
    val (flagged, clean) = pred.partition(_._2)
    val tp = flagged.count(p => errors(p._1))
    PRF(tp, flagged.size - tp, errors.size - tp, clean.count(p => !errors(p._1)))
  }

  /** Per-error-type recall-oriented breakdown (Fig. 11-style diagnostics):
    * for each injected type, the F1 restricted to cells that are either clean
    * or of that type: that type's counts plus those of the clean (`""`) group.
    */
  def evaluateByType(pred: DataFrame, mask: DataFrame): Map[String, PRF] = {
    val groups = confusion(pred, mask, "err_type").map { case (r, m) => r.getString(0) -> m }.toMap
    val c = groups.getOrElse("", PRF(0, 0, 0, 0))
    (groups - "").map { case (t, m) => t -> PRF(m.tp + c.tp, m.fp + c.fp, m.fn + c.fn, m.tn + c.tn) }
  }
}
