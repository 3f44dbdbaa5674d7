package repro.core

import org.apache.spark.sql.DataFrame
import repro.data.CellTable
import repro.util.Par

/** Correlated-attribute selection via normalized mutual information
  * (Section III-B, "Unified Feature Representation").
  *
  * NMI(a_x, a_y) = I(x;y) / sqrt(H(x)·H(y)), probabilities estimated from
  * value (co-)occurrence frequencies. Estimated over a deterministic tuple
  * sample (tid stride) so high-cardinality attributes don't require
  * collecting full pair distributions.
  */
object Correlation {

  val MaxSampleTuples = 5000

  /** Mutual information of two aligned string columns (natural log). */
  def mutualInformation(xs: Seq[String], ys: Seq[String]): Double =
    mutualInformation(xs, ys, distribution(xs), distribution(ys))

  /** `mutualInformation` given the columns' value distributions. */
  private def mutualInformation(xs: Seq[String], ys: Seq[String],
                                px: Map[String, Double], py: Map[String, Double]): Double = {
    require(xs.size == ys.size && xs.nonEmpty)
    val n = xs.size.toDouble
    val pxy = xs.zip(ys).groupBy(identity).view.mapValues(_.size / n).toMap
    pxy.iterator.map { case ((x, y), p) =>
      p * math.log(p / (px(x) * py(y)))
    }.sum
  }

  /** Each value's share of `xs`. */
  private def distribution(xs: Seq[String]): Map[String, Double] = {
    val n = xs.size.toDouble
    xs.groupBy(identity).view.mapValues(_.size / n).toMap
  }

  def entropy(xs: Seq[String]): Double = {
    val n = xs.size.toDouble
    xs.groupBy(identity).values.map { g =>
      val p = g.size / n
      -p * math.log(p)
    }.sum
  }

  /** A column with its value distribution and entropy, each computed once. */
  private final case class Column(values: Seq[String], p: Map[String, Double], h: Double)

  private def column(xs: Seq[String]): Column = Column(xs, distribution(xs), entropy(xs))

  /** NMI in [0,1]; 0 when either attribute is constant. */
  def nmi(xs: Seq[String], ys: Seq[String]): Double = {
    val hx = entropy(xs); val hy = entropy(ys)
    if (hx == 0.0 || hy == 0.0) 0.0
    else math.min(1.0, mutualInformation(xs, ys) / math.sqrt(hx * hy))
  }

  /** `nmi` of two columns whose distributions and entropies are known. */
  private def nmi(x: Column, y: Column): Double =
    if (x.h == 0.0 || y.h == 0.0) 0.0
    else math.min(1.0, mutualInformation(x.values, y.values, x.p, y.p) / math.sqrt(x.h * y.h))

  /** `topK` of the tuples of `dirty`, collected. */
  def topK(dirty: DataFrame, attrs: Seq[String], k: Int): Map[String, Seq[String]] =
    topK(CellTable.tuples(dirty, attrs), attrs, k)

  /** The strided sample of the tid-sorted dirty tuples that NMI is
    * estimated over, as one value column per attribute.
    */
  private[core] def sampleColumns(tuples: Array[(Long, Map[String, String])],
                                  attrs: Seq[String]): Map[String, Seq[String]] = {
    val stride = math.max(1L, tuples.length / MaxSampleTuples)
    val rows = tuples.toSeq.collect { case (tid, row) if tid % stride == 0L => row }
    attrs.map(a => a -> rows.map(_(a))).toMap
  }

  /** The NMI of every pair (attrs(i), attrs(j)), i < j, of `cols`. Each
    * column's distribution and entropy are computed once; the pairs' NMIs in
    * parallel.
    */
  private[core] def pairScores(cols: Map[String, Seq[String]],
                               attrs: Seq[String]): Map[(String, String), Double] = {
    val stats = attrs.zip(Par.map(attrs)(a => column(cols(a)))).toMap
    val pairs = for {
      i <- attrs.indices
      j <- (i + 1) until attrs.size
    } yield (attrs(i), attrs(j))
    pairs.zip(Par.map(pairs) { case (a, b) => nmi(stats(a), stats(b)) }).toMap
  }

  /** Top-k correlated attributes per attribute, from a strided sample of the
    * tid-sorted dirty tuples.
    */
  def topK(tuples: Array[(Long, Map[String, String])], attrs: Seq[String],
           k: Int): Map[String, Seq[String]] = {
    val score = pairScores(sampleColumns(tuples, attrs), attrs)

    def nmiOf(a: String, b: String): Double =
      score.getOrElse((a, b), score.getOrElse((b, a), 0.0))

    attrs.map { a =>
      val ranked = attrs.filterNot(_ == a)
        .sortBy(b => (-nmiOf(a, b), b)) // deterministic tie-break by name
      a -> ranked.take(math.min(k, attrs.size - 1))
    }.toMap
  }
}
