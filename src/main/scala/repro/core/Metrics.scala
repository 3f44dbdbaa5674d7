package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.logical.LocalRelation
import org.apache.spark.sql.types.StructType
import repro.data.{Datasets, MaskTruth}

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
    * (tid, attr, is_error). The prediction table's flagged cells are picked
    * out on the driver, its columns found by name, then scored against the
    * mask's cells. Only the mask's cells are scored; a cell without a
    * prediction, or with a null `pred`, counts as clean. So a prediction
    * table may hold only its flagged cells, as the baselines' tables do.
    *
    * A local table, one whose analyzed plan is a `LocalRelation` (as
    * `CellTable.flagged` and `createDataFrame` of driver rows build), is read
    * from its plan, and scoring it runs no query; any other table is
    * collected.
    *
    * A mask that a load built (`ds.mask` itself) is not read: it is counted
    * from the flagged cells alone against the tids, attributes and errors
    * `Datasets` recorded for that mask object at load. The record follows the
    * mask, not the dataset: `ds.copy(errTypes = …)` that keeps `ds.mask` is
    * still scored by what the mask holds. Any other mask (derived with
    * `where` or `select`, or built by hand) is collected.
    */
  def evaluate(pred: DataFrame, mask: DataFrame): PRF = {
    val flagged = flaggedCells(pred)
    Datasets.truth(mask) match {
      case Some(t) => countFlagged(flagged, t)
      case None =>
        val rows = marked(mask, "is_error")
        val set = flagged.toSet
        count(rows.toSeq.map { case (c, _) => c -> set(c) },
              rows.collect { case (c, true) => c }.toSet)
    }
  }

  /** The cells `pred` flags, duplicates included: read from the plan of a
    * local table, collected from any other.
    */
  private[core] def flaggedCells(pred: DataFrame): Seq[(Long, String)] =
    pred.queryExecution.analyzed match {
      case local: LocalRelation =>
        val (t, a, f) = columns(local.schema, "pred")
        local.data.collect { case r if !r.isNullAt(f) && r.getBoolean(f) =>
          require(!r.isNullAt(t), "a flagged cell with a null tid")
          (r.getLong(t), if (r.isNullAt(a)) null else r.getUTF8String(a).toString)
        }
      case _ => marked(pred, "pred").toSeq.collect { case (c, true) => c }
    }

  /** Each row of `df` as its cell (tid, attr) and whether its column `flag`
    * is true (a null is not).
    */
  private def marked(df: DataFrame, flag: String): Array[((Long, String), Boolean)] = {
    val (t, a, f) = columns(df.schema, flag)
    df.collect().map(r => (r.getLong(t), r.getString(a)) -> (!r.isNullAt(f) && r.getBoolean(f)))
  }

  /** The indices of `tid`, `attr` and `flag` in `schema`. */
  private def columns(schema: StructType, flag: String): (Int, Int, Int) =
    (schema.fieldIndex("tid"), schema.fieldIndex("attr"), schema.fieldIndex(flag))

  /** The counts of the flagged cells against a recorded mask, from the
    * distinct flagged cells the mask holds alone: tp of them are errors, the
    * rest are false positives, the unflagged errors are missed and every
    * other cell is a true negative.
    */
  private[core] def countFlagged(flagged: Iterable[(Long, String)], truth: MaskTruth): PRF = {
    val hits = flagged.iterator.filter(truth.contains).toSet
    val tp = hits.count(truth.errors).toLong
    val fp = hits.size - tp
    val fn = truth.errors.size - tp
    PRF(tp, fp, fn, truth.cellCount - tp - fp - fn)
  }

  /** Driver-side counts of one prediction per cell; an unpredicted error is missed. */
  def count(pred: Iterable[((Long, String), Boolean)], errors: Set[(Long, String)]): PRF = {
    val (flagged, clean) = pred.partition(_._2)
    val tp = flagged.count(p => errors(p._1))
    PRF(tp, flagged.size - tp, errors.size - tp, clean.count(p => !errors(p._1)))
  }
}
