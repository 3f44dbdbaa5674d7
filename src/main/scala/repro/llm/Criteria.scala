package repro.llm

import repro.core.Patterns
import repro.util.Rng

/** Executable error-checking criteria (Section III-B).
  *
  * The paper has the LLM emit Python predicates per attribute (Fig. 4); here
  * each predicate is a `Criterion` value with the same semantics: given a
  * cell value and its tuple context, return true iff the value *passes* the
  * check. Binary adherence over an attribute's criteria set forms the
  * error-reason-aware feature block f_cri, and the same criteria drive the
  * mutual-verification step of Algorithm 1.
  */
sealed trait Criterion extends Serializable {
  def name: String
  /** true = value consistent with the criterion (looks clean). */
  def eval(value: String, ctx: Map[String, String]): Boolean
}

/** Non-empty check — catches missing values. */
final case class NotEmpty() extends Criterion {
  val name = "not_empty"
  def eval(v: String, ctx: Map[String, String]): Boolean = v.nonEmpty
}

/** Generalized-pattern membership (catches pattern violations and typos that
  * change the character structure).
  */
final case class PatternIn(level: Int, allowed: Set[String]) extends Criterion {
  val name = s"pattern_l$level"
  def eval(v: String, ctx: Map[String, String]): Boolean = allowed.contains(Patterns.at(level, v))
}

/** Closed-domain membership for low-cardinality attributes. */
final case class DomainIn(allowed: Set[String]) extends Criterion {
  val name = "domain"
  def eval(v: String, ctx: Map[String, String]): Boolean = allowed.contains(v)
}

/** Valid numeric range (catches outliers); non-parsing values fail. */
final case class NumericRange(min: Double, max: Double) extends Criterion {
  val name = "numeric_range"
  def eval(v: String, ctx: Map[String, String]): Boolean =
    Criteria.parseNumber(v).exists(x => x >= min && x <= max)
}

/** Plausible length bounds. */
final case class LengthIn(min: Int, max: Int) extends Criterion {
  val name = "length"
  def eval(v: String, ctx: Map[String, String]): Boolean =
    v.length >= min && v.length <= max
}

/** Functional-dependency consistency with another attribute: for context
  * values the learned mapping covers, the cell must match the mapped value
  * (catches rule violations — cf. the Hospital MeasureCode criterion, Fig. 4).
  */
final case class FDConsistent(otherAttr: String, mapping: Map[String, String])
    extends Criterion {
  val name = s"fd_from_$otherAttr"
  def eval(v: String, ctx: Map[String, String]): Boolean =
    ctx.get(otherAttr).flatMap(mapping.get) match {
      case Some(expected) => expected == v
      case None           => true // unseen lhs: cannot judge, pass
    }
}

object Criteria {

  /** Fixed criteria-feature width per attribute (padded with "pass"). */
  val MaxPerAttr = 8

  private val numRe = "-?\\d+(?:\\.\\d+)?".r
  def parseNumber(v: String): Option[Double] = numRe.findFirstIn(v).map(_.toDouble)

  /** One sampled cell with its tuple context (the other attribute values). */
  final case class Sample(value: String, ctx: Map[String, String])

  /** Infer an attribute's criteria set from sample tuples — what the LLM's
    * generated Python does. `quality` ∈ [0,1] is the profile's codegen
    * quality: lower quality drops checks and corrupts pattern sets, modeling
    * weaker models writing incomplete or over-strict validators. Inference
    * from (possibly dirty) samples is naturally imperfect, exactly like
    * criteria reasoned from random dirty samples in the paper.
    */
  def infer(attr: String, samples: Seq[Sample], corrAttrs: Seq[String],
            quality: Double, seedKey: String): Seq[Criterion] = {
    val vals = samples.map(_.value).filter(_.nonEmpty)
    if (vals.isEmpty) return Seq(NotEmpty())
    val out = scala.collection.mutable.ArrayBuffer.empty[Criterion]

    out += NotEmpty()

    // Pattern criterion: keep L2 patterns covering >= 5% of the sample.
    val patCounts = vals.groupBy(Patterns.l2).view.mapValues(_.size).toMap
    val common = patCounts.filter(_._2 >= math.max(2, 0.05 * vals.size)).keySet
    if (common.nonEmpty && common.size <= 8) {
      var allowed = common
      if (Rng.bool((1 - quality) * 0.4, seedKey, attr, "patNoise") && allowed.size > 1)
        allowed = allowed - Rng.pick(allowed.toIndexedSeq.sorted, seedKey, attr, "patDrop")
      out += PatternIn(2, allowed)
    }

    // Numeric range via IQR fences when the attribute is mostly numeric.
    val nums = vals.flatMap(parseNumber)
    if (nums.size >= 0.8 * vals.size && nums.nonEmpty) {
      val sorted = nums.sorted
      def q(p: Double) = sorted(math.min(sorted.size - 1, (p * sorted.size).toInt))
      val iqr = math.max(q(0.75) - q(0.25), 1e-9)
      var lo = q(0.25) - 2.0 * iqr
      var hi = q(0.75) + 2.0 * iqr
      if (Rng.bool((1 - quality) * 0.3, seedKey, attr, "rangeNoise")) {
        lo = q(0.25); hi = q(0.75) // over-strict range from a weak model
      }
      out += NumericRange(lo, hi)
    }

    // Closed domain for low-cardinality attributes.
    val distinct = vals.distinct
    if (distinct.size <= 12 && distinct.size < 0.5 * vals.size)
      out += DomainIn(distinct.toSet)

    // Length bounds, widened.
    val lens = vals.map(_.length)
    out += LengthIn(math.max(0, lens.min - 2), lens.max + 2)

    // FD consistency with each correlated attribute when the sample obeys a
    // functional mapping.
    corrAttrs.foreach { other =>
      fdMapping(samples, other).foreach(m => out += FDConsistent(other, m))
    }

    // Weak models omit checks entirely.
    val kept = out.toSeq.filter {
      case _: NotEmpty => true
      case c => !Rng.bool((1 - quality) * 0.6, seedKey, attr, "drop", c.name)
    }
    kept.take(MaxPerAttr)
  }

  /** Majority mapping other→value if the samples are >=90% consistent. */
  def fdMapping(samples: Seq[Sample], other: String): Option[Map[String, String]] = {
    val pairs = samples.flatMap(s => s.ctx.get(other).filter(_.nonEmpty).map(_ -> s.value))
    if (pairs.size < 5) return None
    val majority = pairs.groupBy(_._1).view.mapValues { vs =>
      vs.groupBy(_._2).maxBy { case (_, g) => (g.size, g.head._2) }._1
    }.toMap
    val consistent = pairs.count { case (o, v) => majority(o) == v }
    if (consistent >= 0.9 * pairs.size && majority.size > 1) Some(majority) else None
  }

  /** Contrastive refinement (Algorithm 1, lines 4–7): re-infer from values
    * labeled clean only, and require refined checks to actually separate the
    * labeled erroneous values. Boosted effective quality models the sharper
    * criteria contrastive prompting yields.
    */
  def refine(attr: String, clean: Seq[Sample], err: Seq[Sample],
             corrAttrs: Seq[String], quality: Double, seedKey: String): Seq[Criterion] = {
    val base = infer(attr, clean, corrAttrs, math.min(1.0, quality + 0.15),
                     seedKey + ":refine")
    if (err.isEmpty) base
    else {
      // Prefer criteria that reject at least one known-erroneous value; keep
      // the rest as secondary checks.
      val (separating, others) = base.partition(c =>
        err.exists(s => !c.eval(s.value, s.ctx)))
      (separating ++ others).take(MaxPerAttr)
    }
  }

  /** Render criteria as pseudo-code lines (for output-token metering). */
  def render(cs: Seq[Criterion]): Seq[String] = cs.map {
    case NotEmpty()          => "if len(value) == 0: return False"
    case PatternIn(l, a)     => s"if pattern_l$l(value) not in ${a.toSeq.sorted.mkString("{", ",", "}")}: return False"
    case DomainIn(a)         => s"if value not in ${a.toSeq.sorted.take(12).mkString("{", ",", "}")}: return False"
    case NumericRange(lo, hi) => f"if not ($lo%.3f <= to_number(value) <= $hi%.3f): return False"
    case LengthIn(lo, hi)    => s"if not ($lo <= len(value) <= $hi): return False"
    case FDConsistent(o, m)  => s"if row['$o'] in FD_MAP_$o and FD_MAP_$o[row['$o']] != value: return False  # ${m.size} entries"
  }
}
