package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col

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
    * (tid, attr, is_error): collects the flagged cells and the mask, then
    * `count`s. Only the mask's cells are scored; a cell without a prediction,
    * or with a null `pred`, counts as clean.
    */
  def evaluate(pred: DataFrame, mask: DataFrame): PRF = {
    val cell = (r: Row) => (r.getLong(0), r.getString(1))
    val flagged = pred.where(col("pred")).select("tid", "attr").collect().map(cell).toSet
    val cells = mask.select("tid", "attr", "is_error").collect().map(r => cell(r) -> r.getBoolean(2))
    count(cells.map { case (c, _) => c -> flagged(c) }, cells.collect { case (c, true) => c }.toSet)
  }

  /** Driver-side counts of one prediction per cell; an unpredicted error is missed. */
  def count(pred: Iterable[((Long, String), Boolean)], errors: Set[(Long, String)]): PRF = {
    val (flagged, clean) = pred.partition(_._2)
    val tp = flagged.count(p => errors(p._1))
    PRF(tp, flagged.size - tp, errors.size - tp, clean.count(p => !errors(p._1)))
  }
}
