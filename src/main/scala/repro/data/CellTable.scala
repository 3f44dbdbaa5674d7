package repro.data

import org.apache.spark.sql.DataFrame

/** Wide ↔ long conversions for cell-level processing.
  *
  * The long "cell table" (tid, attr, value) is the unit of error detection —
  * masks, predictions and metrics are all keyed by (tid, attr).
  */
object CellTable {

  /** Melt a wide dataset (tid + string attrs) into (tid, attr, value). */
  def cells(df: DataFrame, attrs: Seq[String]): DataFrame = {
    val stackArgs = attrs.map(a => s"'$a', `$a`").mkString(", ")
    df.selectExpr("tid", s"stack(${attrs.size}, $stackArgs) as (attr, value)")
  }
}
