package repro.data

import repro.util.Rng

/** Attribute value generators for the synthetic evaluation datasets.
  *
  * Every generator is a pure function of (dataset seed, tuple id, attribute
  * name), so clean datasets are deterministic and reproducible on executors
  * without shared state.
  */
sealed trait Gen extends Serializable

/** Categorical draw from a fixed vocabulary; skew > 0 gives a zipf-ish head. */
final case class Cat(values: IndexedSeq[String], skew: Double = 0.0) extends Gen

/** Functionally-dependent attribute: value derived from another attribute's
  * value in the same tuple (src must be generated earlier in the spec).
  */
final case class Dep(src: String, f: String => String) extends Gen

/** Dependent on two source attributes (e.g. Hospital's stateavg). */
final case class Dep2(srcA: String, srcB: String, f: (String, String) => String) extends Gen

/** Numeric value rendered as a string with fixed decimals and affixes. */
final case class Num(min: Double, max: Double, decimals: Int,
                     prefix: String = "", suffix: String = "") extends Gen

/** Template pattern: '#' digit, '@' lowercase letter, '^' uppercase letter;
  * everything else literal.
  */
final case class Patt(template: String) extends Gen

/** Unique per-tuple identifier. */
final case class IdG(prefix: String, width: Int) extends Gen

/** minW..maxW words drawn from a vocabulary, space-joined. */
final case class Words(vocab: IndexedSeq[String], minW: Int, maxW: Int) extends Gen

final case class AttrSpec(name: String, gen: Gen)

/** Functional dependency lhs → rhs used for rule-violation injection, the
  * Nadeef baseline's constraints, and correlated-attribute sanity tests.
  */
final case class FD(lhs: String, rhs: String)

object FD {

  /** The co-occurrence pairs an FD check reads: each FD's (rhs, lhs). */
  def pairs(fds: Seq[FD]): Seq[(String, String)] = fds.map(fd => fd.rhs -> fd.lhs)
}

/** One evaluation dataset: schema, tuple count, FD structure, per-error-type
  * injection rates (% of all cells), and the external "manual" artifacts the
  * criteria-based baselines consume (Nadeef regexes, Katara KB relations).
  */
final case class DatasetSpec(
    name: String,
    attrs: IndexedSeq[AttrSpec],
    nTuples: Int,
    fds: Seq[FD],
    rates: Map[String, Double],                       // MV/T/PV/O/RV → % cells
    nadeefPatterns: Map[String, String] = Map.empty,  // attr → regex
    kb: Seq[KBRelation] = Seq.empty,
    seed: Long = 7L,
) {
  require(attrs.map(_.name).distinct.size == attrs.size, s"duplicate attrs in $name")
  val attrNames: IndexedSeq[String] = attrs.map(_.name)

  /** Attributes rendered from Num generators (dBoost's numeric columns). */
  val numericAttrs: Set[String] =
    attrs.collect { case AttrSpec(n, _: Num) => n }.toSet
}

/** A Katara-style knowledge-base relation: for lhs values it covers, the set
  * of rhs values it considers valid.
  */
final case class KBRelation(lhsAttr: String, rhsAttr: String,
                            mapping: Map[String, String])

object Schema {

  /** Generate the clean values of tuple `tid` in spec order. */
  def genRow(spec: DatasetSpec, tid: Long): IndexedSeq[String] = {
    val out = scala.collection.mutable.LinkedHashMap.empty[String, String]
    spec.attrs.foreach { a =>
      out(a.name) = genValue(spec, a, tid, out)
    }
    out.values.toIndexedSeq
  }

  private def genValue(spec: DatasetSpec, a: AttrSpec, tid: Long,
                       sofar: scala.collection.Map[String, String]): String = a.gen match {
    case Cat(vs, skew) =>
      if (skew <= 0) Rng.pick(vs, spec.seed, spec.name, a.name, tid)
      else vs(Rng.zipfIdx(vs.length, skew, spec.seed, spec.name, a.name, tid))
    case Dep(src, f)  => f(sofar(src))
    case Dep2(sa, sb, f) => f(sofar(sa), sofar(sb))
    case Num(min, max, d, p, s) =>
      val v = min + Rng.unif(spec.seed, spec.name, a.name, tid) * (max - min)
      p + (if (d == 0) math.round(v).toString else s"%.${d}f".format(v)) + s
    case Patt(t) => renderPattern(t, spec.seed, spec.name, a.name, tid)
    case IdG(p, w) => p + tid.toString.reverse.padTo(w, '0').reverse
    case Words(vocab, minW, maxW) =>
      val n = minW + Rng.int(maxW - minW + 1, spec.seed, spec.name, a.name, tid, "n")
      (0 until n).map(i => Rng.pick(vocab, spec.seed, spec.name, a.name, tid, i)).mkString(" ")
  }

  private[data] def renderPattern(t: String, keys: Any*): String = {
    val sb = new StringBuilder
    var i = 0
    while (i < t.length) {
      t.charAt(i) match {
        case '#' => sb.append(('0' + Rng.int(10, keys :+ i: _*)).toChar)
        case '@' => sb.append(('a' + Rng.int(26, keys :+ i: _*)).toChar)
        case '^' => sb.append(('A' + Rng.int(26, keys :+ i: _*)).toChar)
        case c   => sb.append(c)
      }
      i += 1
    }
    sb.toString
  }

  /** Closed value domains per attribute, resolved transitively: Cat roots
    * have their vocabulary, Dep attributes the image of their source's
    * domain. Open-ended generators (Num/Patt/IdG/Words/Dep2) have none.
    */
  def attrDomains(spec: DatasetSpec): Map[String, IndexedSeq[String]] = {
    val out = scala.collection.mutable.Map.empty[String, IndexedSeq[String]]
    spec.attrs.foreach { a =>
      a.gen match {
        case Cat(vs, _)  => out(a.name) = vs
        case Dep(src, f) => out.get(src).foreach(d => out(a.name) = d.map(f).distinct)
        case _           =>
      }
    }
    out.toMap
  }

  /** The rhs domain of each FD whose rhs has a resolvable closed domain —
    * the valid alternatives rule-violation injection swaps in.
    */
  def fdRhsDomains(spec: DatasetSpec): Map[String, IndexedSeq[String]] = {
    val domains = attrDomains(spec)
    spec.fds.flatMap { fd =>
      domains.get(fd.rhs).filter(_.size > 1).map(fd.rhs -> _)
    }.toMap
  }
}
