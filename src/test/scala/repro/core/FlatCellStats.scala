package repro.core

import repro.util.Par

/** The reference for `CellStats.count`: the same counts as three flat maps
  * whose tuple keys start with the attribute, each counted by grouping every
  * key of its cells.
  */
final case class FlatCellStats(
    n: Long,
    valueCounts: Map[(String, String), Long],
    patCounts: Map[(String, Int, String), Long],
    coCounts: Map[(String, String, String, String), Long],
)

object FlatCellStats {

  /** Count the tuples, the (attr, value)s, the (attr, level, pattern)s of the
    * L1–L3 patterns and the (attr, value, other, otherValue)s of `pairs`.
    */
  def count(tuples: Array[(Long, Map[String, String])], attrs: IndexedSeq[String],
            pairs: Seq[(String, String)]): FlatCellStats = {
    val rows = tuples.map(_._2)
    val perAttr = Par.map(attrs) { a =>
      val values = counts(rows.map(r => (a, r(a))))
      val pats = values.toSeq.flatMap { case ((_, v), c) =>
        Patterns.all(v).zipWithIndex.map { case (p, i) => ((a, i + 1, p), c) }
      }.groupMapReduce(_._1)(_._2)(_ + _)
      (values, pats)
    }
    val co = Par.map(pairs.map(_._1).distinct) { a =>
      counts(pairs.filter(_._1 == a).toArray.flatMap { case (_, q) =>
        rows.map(r => (a, r(a), q, r(q)))
      })
    }.flatten.toMap
    FlatCellStats(tuples.length.toLong, perAttr.flatMap(_._1).toMap, perAttr.flatMap(_._2).toMap, co)
  }

  /** `stats` in the flat layout. */
  def of(stats: CellStats): FlatCellStats = FlatCellStats(
    stats.n,
    for ((a, vs) <- stats.values; (v, c) <- vs) yield (a, v) -> c,
    for (((a, level), ps) <- stats.patterns; (p, c) <- ps) yield (a, level, p) -> c,
    for (((a, q), byW) <- stats.coCounts; (w, vs) <- byW; (v, c) <- vs) yield (a, v, q, w) -> c)

  private def counts[K](keys: Array[K]): Map[K, Long] = keys.groupMapReduce(identity)(_ => 1L)(_ + _)
}
