package repro.core

import org.apache.spark.sql.DataFrame

/** The cell statistics of one dirty table (Section III-B), shared by the
  * feature model and the statistical baselines.
  */
final case class CellStats(
    n: Long,
    valueCounts: Map[(String, String), Long],
    patCounts: Map[(String, Int, String), Long],
    coCounts: Map[(String, String, String, String), Long],
) {
  def valueCount(attr: String, v: String): Long = valueCounts.getOrElse((attr, v), 0L)

  /** The count of `v`'s level-`level` pattern in `attr` (level 1, 2 or 3). */
  def patCount(attr: String, level: Int, v: String): Long = {
    val p = level match {
      case 1 => Patterns.l1(v); case 2 => Patterns.l2(v); case _ => Patterns.l3(v)
    }
    patCounts.getOrElse((attr, level, p), 0L)
  }

  def coCount(attr: String, v: String, other: String, otherValue: String): Long =
    coCounts.getOrElse((attr, v, other, otherValue), 0L)
}

object CellStats {

  /** Count the tuples, the (attr, value)s, the (attr, level, pattern)s of the
    * L1–L3 patterns and, for each (attr, other) pair, the
    * (attr, value, other, otherValue)s in one pass: every tuple emits the keys
    * of all three maps, told apart by arity, and one countByValue counts them.
    */
  def count(dirty: DataFrame, attrs: IndexedSeq[String], pairs: Seq[(String, String)]): CellStats = {
    val counts = dirty.rdd.flatMap[Product] { r =>
      val row = attrs.map(a => a -> r.getAs[String](a)).toMap
      attrs.flatMap { a =>
        val v = row(a)
        (a, v) +: Patterns.all(v).zipWithIndex.map { case (p, i) => (a, i + 1, p) }
      } ++ pairs.map { case (a, q) => (a, row(a), q, row(q)) }
    }.countByValue()
    val valueCounts = counts.collect { case (k: (String, String) @unchecked, c) => k -> c }.toMap
    val patCounts =
      counts.collect { case (k: (String, Int, String) @unchecked, c) => k -> c }.toMap
    val coCounts =
      counts.collect { case (k: (String, String, String, String) @unchecked, c) => k -> c }.toMap
    // Every tuple holds one value per attribute, so one attribute's counts sum to n.
    val n = attrs.headOption.fold(dirty.count()) { a =>
      valueCounts.iterator.collect { case ((`a`, _), c) => c }.sum
    }
    CellStats(n, valueCounts, patCounts, coCounts)
  }
}
