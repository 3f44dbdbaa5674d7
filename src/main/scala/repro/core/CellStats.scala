package repro.core

import repro.util.Par

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
    * (attr, value, other, otherValue)s of the collected `tuples`, one
    * attribute per task: each task counts its attribute's values, the patterns
    * of its distinct values, and the pairs that start at it.
    */
  def count(tuples: Array[(Long, Map[String, String])], attrs: IndexedSeq[String],
            pairs: Seq[(String, String)]): CellStats = {
    val rows = tuples.map(_._2)
    def counts[K](keys: Array[K]): Map[K, Long] = keys.groupMapReduce(identity)(_ => 1L)(_ + _)
    val perAttr = Par.map(attrs) { a =>
      val values = counts(rows.map(r => (a, r(a))))
      val pats = values.toSeq.flatMap { case ((_, v), c) =>
        Patterns.all(v).zipWithIndex.map { case (p, i) => ((a, i + 1, p), c) }
      }.groupMapReduce(_._1)(_._2)(_ + _)
      val co = counts(pairs.filter(_._1 == a).toArray.flatMap { case (_, q) =>
        rows.map(r => (a, r(a), q, r(q)))
      })
      (values, pats, co)
    }
    // Every key starts with its task's attribute, so the tasks' maps are disjoint.
    CellStats(tuples.length.toLong, perAttr.flatMap(_._1).toMap, perAttr.flatMap(_._2).toMap,
              perAttr.flatMap(_._3).toMap)
  }
}
