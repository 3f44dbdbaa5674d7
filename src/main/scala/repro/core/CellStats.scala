package repro.core

import scala.collection.mutable
import repro.util.Par

/** The cell statistics of one dirty table (Section III-B), shared by the
  * feature model and the statistical baselines, keyed the way they are read:
  *
  *  - `values(attr)`: value → count;
  *  - `patterns((attr, level))`: level-`level` pattern (L1–L3) → count;
  *  - `coCounts((attr, other))`: other's value w → attr's value v → the
  *    number of tuples with both, for each counted pair.
  */
final case class CellStats(
    n: Long,
    values: Map[String, Map[String, Long]],
    patterns: Map[(String, Int), Map[String, Long]],
    coCounts: Map[(String, String), Map[String, Map[String, Long]]],
) {
  def valueCount(attr: String, v: String): Long = values.get(attr).fold(0L)(_.getOrElse(v, 0L))

  /** The count of `v`'s level-`level` pattern in `attr` (level 1, 2 or 3). */
  def patCount(attr: String, level: Int, v: String): Long =
    patterns.get((attr, level)).fold(0L)(_.getOrElse(Patterns.at(level, v), 0L))

  def coCount(attr: String, v: String, other: String, otherValue: String): Long =
    coCounts.get((attr, other)).flatMap(_.get(otherValue)).fold(0L)(_.getOrElse(v, 0L))

  /** These statistics with the co-occurrences of those `pairs` of `tuples`
    * (the tuples counted here) that they do not hold yet.
    */
  def withPairs(tuples: Array[(Long, Map[String, String])],
                pairs: Seq[(String, String)]): CellStats =
    copy(coCounts = coCounts ++ CellStats.pairCounts(tuples, pairs.filterNot(coCounts.contains)))
}

object CellStats {

  /** Count the tuples, each attribute's values and the L1–L3 patterns of its
    * values, one attribute per task (each task counts its attribute's values,
    * then the patterns of its distinct values), and the co-occurrences of
    * `pairs`.
    */
  def count(tuples: Array[(Long, Map[String, String])], attrs: IndexedSeq[String],
            pairs: Seq[(String, String)]): CellStats = {
    val rows = tuples.map(_._2)
    val perAttr = Par.map(attrs) { a =>
      val values = counts(rows.map(_(a)))
      (values, (1 to 3).map(level =>
        (a, level) -> values.groupMapReduce(e => Patterns.at(level, e._1))(_._2)(_ + _)))
    }
    CellStats(tuples.length.toLong, attrs.zip(perAttr.map(_._1)).toMap,
              perAttr.flatMap(_._2).toMap, pairCounts(tuples, pairs))
  }

  /** For each distinct (attr, other) pair, its co-occurrences in `tuples`,
    * one pair per task.
    */
  private def pairCounts(
      tuples: Array[(Long, Map[String, String])],
      pairs: Seq[(String, String)]): Map[(String, String), Map[String, Map[String, Long]]] = {
    val rows = tuples.map(_._2)
    val ps = pairs.distinct
    ps.zip(Par.map(ps) { case (a, q) =>
      val byOther = mutable.HashMap.empty[String, Map[String, Long]]
      for (r <- rows) {
        val v = r(a)
        byOther.updateWith(r(q))(vs =>
          Some(vs.fold(Map(v -> 1L))(m => m.updated(v, m.getOrElse(v, 0L) + 1L))))
      }
      byOther.toMap
    }).toMap
  }

  private def counts(keys: Array[String]): Map[String, Long] =
    keys.groupMapReduce(identity)(_ => 1L)(_ + _)
}
