package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.forAll
import repro.util.Rng

/** `CellStats.count` against `FlatCellStats.count`, on generated tid-sorted
  * tuples.
  */
object CellStatsProps extends Properties("CellStats") {

  /** The value of tuple `i` in an attribute of `kind`: "empty" is always "",
    * "constant" one value, "mixed" a few values of different character
    * classes (empty among them) and "numbers" up to 400 distinct numbers.
    */
  private def value(kind: String, i: Int, salt: Int): String = kind match {
    case "empty"    => ""
    case "constant" => "Const-1"
    case "mixed"    => Rng.pick(IndexedSeq("", "ab", "AB", "DOe123.", "x-1", "x-2", "ü ß", "12"),
                                "csp", salt, i)
    case "numbers"  => f"${Rng.int(400, "csp", salt, i) / 4.0}%.2f"
  }

  private val tables = for {
    nAttrs <- Gen.choose(1, 6)
    n <- Gen.choose(1, 300)
    drawn <- Gen.listOfN(nAttrs, Gen.oneOf("mixed", "numbers", "empty", "constant"))
    rot <- Gen.choose(0, nAttrs - 1)
    salt <- Gen.choose(0, 1 << 20)
    attrs = IndexedSeq.tabulate(nAttrs)(j => s"a$j")
    pairs <- Gen.someOf(for (a <- attrs; q <- attrs if a != q) yield (a, q))
  } yield {
    // With two attributes or more, one is all-empty and one constant.
    val kinds = if (nAttrs == 1) drawn else ("empty" +: "constant" +: drawn).take(nAttrs)
    val kindOf = attrs.indices.map(j => kinds((j + rot) % nAttrs))
    val tuples = Array.tabulate(n) { i =>
      (3L * i + salt % 3) -> attrs.indices.map(j => attrs(j) -> value(kindOf(j), i, salt + j)).toMap
    }
    (tuples, attrs, pairs.toSeq)
  }

  property("count equals the flat reference, and every map sums to n") =
    forAll(tables) { case (tuples, attrs, pairs) =>
      val stats = CellStats.count(tuples, attrs, pairs)
      val ref = FlatCellStats.count(tuples, attrs, pairs)
      val n = tuples.length.toLong
      val lookups = tuples.forall { case (_, row) =>
        attrs.forall { a =>
          val v = row(a)
          stats.valueCount(a, v) == ref.valueCounts((a, v)) &&
          (1 to 3).forall(l => stats.patCount(a, l, v) == ref.patCounts((a, l, Patterns.at(l, v)))) &&
          pairs.filter(_._1 == a).forall { case (_, q) =>
            stats.coCount(a, v, q, row(q)) == ref.coCounts((a, v, q, row(q)))
          }
        }
      }
      val unseen = attrs.forall(a => stats.valueCount(a, "unseen") == 0L &&
        stats.patCount(a, 2, "\t") == 0L && stats.coCount(a, "unseen", a, "unseen") == 0L)
      val label = s"${attrs.size} attrs, $n tuples, ${pairs.size} pairs"
      (Prop(FlatCellStats.of(stats) == ref) :| s"$label: counts differ") &&
      (Prop(stats.values.keySet == attrs.toSet && stats.coCounts.keySet == pairs.toSet) :|
        s"$label: keys differ") &&
      (Prop(attrs.forall(a => stats.values(a).values.sum == n &&
        (1 to 3).forall(l => stats.patterns((a, l)).values.sum == n))) :|
        s"$label: an attribute's counts do not sum to n") &&
      (Prop(pairs.forall(p => stats.coCounts(p).values.flatMap(_.values).sum == n)) :|
        s"$label: a pair's counts do not sum to n") &&
      (Prop(lookups && unseen) :| s"$label: a lookup differs")
    }
}
