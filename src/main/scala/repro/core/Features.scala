package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.ml.linalg.{Vector, Vectors}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.data.EDataset
import repro.llm.{AttrDist, Criteria, Criterion, LLMProfile, SimLLM}
import repro.util.{Rng, TokenMeter}

/** Feature-construction options (the ablation switches of Table IV). */
final case class FeatureOpts(
    corrK: Int = 2,
    useCriteria: Boolean = true,
    useCorr: Boolean = true,
)

/** The fitted per-dataset feature statistics (Section III-B), counted in one
  * `CellStats.count` pass and broadcast for tuple-level featurization:
  *
  *  f_base(cell) = [valueFreq, vicinityFreq] ⊕ [patFreq L1..L3] ⊕ f_sem ⊕ f_cri
  *  Feat(cell)   = f_base(cell) ⊕ f_base(correlated cells of the same tuple)
  */
final class FeatureModel(
    val dsName: String,
    val attrs: IndexedSeq[String],
    val corr: Map[String, Seq[String]],
    val stats: CellStats,
    val criteria: Map[String, Seq[Criterion]],
    val dists: Map[String, AttrDist],
    val opts: FeatureOpts,
) extends Serializable {

  val baseDim: Int = 2 + 3 + Embedding.Dim + Criteria.MaxPerAttr
  val corrBlocks: Int = if (opts.useCorr) math.min(opts.corrK, attrs.size - 1) else 0
  val totalDim: Int = baseDim * (1 + corrBlocks)

  def valueFreq(attr: String, v: String): Double = stats.valueCount(attr, v).toDouble / stats.n

  def patternFreq(attr: String, level: Int, v: String): Double =
    stats.patCount(attr, level, v).toDouble / stats.n

  /** Mean conditional frequency of `v` given the tuple's correlated values. */
  def vicinityFreq(attr: String, v: String, row: Map[String, String]): Double = {
    val others = corr.getOrElse(attr, Seq.empty)
    if (others.isEmpty) 0.0
    else {
      val fs = others.map { q =>
        val w = row.getOrElse(q, "")
        val denom = stats.valueCount(q, w)
        if (denom == 0L) 0.0
        else stats.coCount(attr, v, q, w).toDouble / denom
      }
      fs.sum / fs.size
    }
  }

  /** f_cri: binary adherence to the attribute's criteria, padded to width. */
  def criteriaVec(attr: String, v: String, row: Map[String, String]): Array[Double] = {
    val out = new Array[Double](Criteria.MaxPerAttr)
    if (!opts.useCriteria) return out
    val cs = criteria.getOrElse(attr, Seq.empty)
    var i = 0
    while (i < Criteria.MaxPerAttr) {
      out(i) = if (i < cs.size) { if (cs(i).eval(v, row)) 1.0 else 0.0 } else 1.0
      i += 1
    }
    out
  }

  def baseVec(attr: String, row: Map[String, String]): Array[Double] = {
    val v = row.getOrElse(attr, "")
    val out = new Array[Double](baseDim)
    out(0) = valueFreq(attr, v)
    out(1) = vicinityFreq(attr, v, row)
    out(2) = patternFreq(attr, 1, v)
    out(3) = patternFreq(attr, 2, v)
    out(4) = patternFreq(attr, 3, v)
    // The 16-dim semantic block would dominate Euclidean distances over the
    // frequency/criteria signals in clustering; scale it so each block
    // contributes comparably (standard practice when concatenating feature
    // families of different dimensionality).
    val sem = Embedding.valueVec(v)
    var d = 0
    while (d < Embedding.Dim) { out(5 + d) = sem(d) * SemScale; d += 1 }
    System.arraycopy(criteriaVec(attr, v, row), 0, out, 5 + Embedding.Dim,
                     Criteria.MaxPerAttr)
    out
  }

  private val SemScale = 0.25

  /** The unified representation Feat(D[i,j]) = f_base ⊕ correlated f_base. */
  def finalVec(attr: String, row: Map[String, String]): Array[Double] =
    finalVec(attr, baseVec(_: String, row))

  /** Feat(D[i,j]) assembled from the tuple's base vectors, `baseOf(attr)`:
    * the one assembly behind the driver-side and the tuple-level paths.
    */
  def finalVec(attr: String, baseOf: String => Array[Double]): Array[Double] = {
    val out = new Array[Double](totalDim)
    System.arraycopy(baseOf(attr), 0, out, 0, baseDim)
    if (corrBlocks > 0) {
      val others = corr.getOrElse(attr, Seq.empty).take(corrBlocks)
      others.zipWithIndex.foreach { case (q, b) =>
        System.arraycopy(baseOf(q), 0, out, baseDim * (1 + b), baseDim)
      }
    }
    out
  }
}

object FeatureModel {

  private val CriteriaSampleSize = 40

  /** Fit all statistics in one aggregation pass and reason the initial
    * criteria from a random tuple sample (metered LLM calls).
    */
  def fit(spark: SparkSession, ds: EDataset, corr: Map[String, Seq[String]],
          profile: LLMProfile, meter: TokenMeter, opts: FeatureOpts): FeatureModel = {
    val attrs = ds.attrs

    // Co-occurrence counts only for the (attr, correlated attr) pairs the
    // vicinity feature reads.
    val pairs: Seq[(String, String)] =
      if (!opts.useCorr) Seq.empty
      else corr.toSeq.flatMap { case (a, qs) => qs.take(opts.corrK).map(a -> _) }

    val stats = CellStats.count(ds.dirty, attrs, pairs)
    val n = stats.n

    // Distribution analysis (the executed "analysis functions" of Fig. 5).
    val dists = attrs.map { a =>
      val vc = stats.valueCounts.collect { case ((`a`, v), c) => (v, c) }.toSeq
      val pc = stats.patCounts.collect { case ((`a`, 2, p), c) => (p, c) }.toSeq
      val nums = vc.flatMap { case (v, c) => Criteria.parseNumber(v).map(_ -> c) }
      val numRange =
        if (nums.map(_._2).sum >= 0.8 * n) Some((nums.map(_._1).min, nums.map(_._1).max))
        else None
      a -> AttrDist(a, n,
        vc.sortBy { case (v, c) => (-c, v) }.take(10),
        pc.sortBy { case (p, c) => (-c, p) }.take(10),
        numRange,
        vc.count(_._2 == 1L))
    }.toMap

    // Criteria reasoning from a deterministic random tuple sample.
    val criteria: Map[String, Seq[Criterion]] =
      if (!opts.useCriteria) Map.empty
      else {
        val sampleRows = sampleTuples(ds, CriteriaSampleSize, n)
        attrs.map { a =>
          val samples = sampleRows.map(r => Criteria.Sample(r.getOrElse(a, ""), r))
          a -> SimLLM.reasonCriteria(profile, meter, ds.name, a, samples,
                                     corr.getOrElse(a, Seq.empty).take(opts.corrK))
        }.toMap
      }

    new FeatureModel(ds.name, attrs, corr, stats, criteria, dists, opts)
  }

  /** Deterministic random sample of at most `size` of the `n` tuples as attr→value maps. */
  private[core] def sampleTuples(ds: EDataset, size: Int, n: Long): Seq[Map[String, String]] = {
    val frac = math.min(1.0, size * 3.0 / math.max(1L, n))
    val dsName = ds.name
    val keep = udf((tid: Long) => Rng.bool(frac, dsName, "critSample", tid))
    // The `size` kept tuples with the smallest tids, in one job; tid order,
    // not partition order, so the sample does not depend on the layout.
    val rows = ds.dirty.where(keep(col("tid"))).collect()
      .sortBy(_.getAs[Long]("tid")).take(size)
    rows.toSeq.map(r => ds.attrs.map(a => a -> r.getAs[String](a)).toMap)
  }

  /** Featurize every cell: (tid, attr, value, features). Each tuple builds its
    * row map and its |A| base vectors once, then assembles every cell's
    * unified vector from them with the broadcast model.
    */
  def transform(spark: SparkSession, ds: EDataset, model: FeatureModel): DataFrame = {
    import spark.implicits._
    val bc: Broadcast[FeatureModel] = spark.sparkContext.broadcast(model)
    val attrs = ds.attrs
    ds.dirty.flatMap { r =>
      val m = bc.value
      val row = attrs.map(a => a -> r.getAs[String](a)).toMap
      val bases = attrs.map(a => a -> m.baseVec(a, row)).toMap
      attrs.map(a => (r.getAs[Long]("tid"), a, row(a), Vectors.dense(m.finalVec(a, bases)): Vector))
    }.toDF("tid", "attr", "value", "features")
  }
}
