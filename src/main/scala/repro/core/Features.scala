package repro.core

import org.apache.spark.ml.linalg.{Vector, Vectors}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.{CellTable, EDataset}
import repro.llm.{AttrDist, Criteria, Criterion, LLMProfile, SimLLM}
import repro.util.{Par, Rng, TokenMeter}

/** Feature-construction options (the ablation switches of Table IV). */
final case class FeatureOpts(
    corrK: Int = 2,
    useCriteria: Boolean = true,
    useCorr: Boolean = true,
)

/** The fitted per-dataset feature statistics (Section III-B): the dataset's
  * `CellStats` with the co-occurrences of the correlated pairs added:
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

  /** Mean conditional frequency of `v` given the tuple's correlated values
    * (those of the attributes of its correlated blocks).
    */
  def vicinityFreq(attr: String, v: String, row: Map[String, String]): Double = {
    val others = corr.getOrElse(attr, Seq.empty).take(corrBlocks)
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

  /** Feat(D[i,j]) assembled from the tuple's base vectors, `baseOf(attr)`. */
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

  /** Feat of every cell of one tuple, in `attrs` order, from the tuple's |A|
    * base vectors computed once: the one featurization behind the driver-side
    * `featurize` and the executor-side `FeatureModel.transform`.
    */
  def tupleVecs(row: Map[String, String]): IndexedSeq[Array[Double]] = {
    val bases = attrs.map(a => a -> baseVec(a, row)).toMap
    attrs.map(a => finalVec(a, bases))
  }

  /** Featurize every cell of the tid-sorted `tuples` on the driver, in
    * parallel chunks of tuples, into per-attribute cells in tid order.
    */
  def featurize(tuples: Array[(Long, Map[String, String])]): Map[String, Labeling.AttrCells] = {
    val n = tuples.length
    val feats = attrs.map(_ => new Array[Array[Double]](n))
    val chunk = math.max(1, n / (4 * Runtime.getRuntime.availableProcessors))
    Par.map(0 until n by chunk) { lo =>
      (lo until math.min(n, lo + chunk)).foreach { i =>
        tupleVecs(tuples(i)._2).zip(feats).foreach { case (f, out) => out(i) = f }
      }
    }
    val tids = tuples.map(_._1)
    attrs.zip(feats).map { case (a, fs) =>
      a -> Labeling.AttrCells(a, tids, tuples.map(_._2(a)), fs)
    }.toMap
  }
}

object FeatureModel {

  private val CriteriaSampleSize = 40

  /** `fit` on the tuples of `ds.dirty`, collected. */
  def fit(spark: SparkSession, ds: EDataset, corr: Map[String, Seq[String]],
          profile: LLMProfile, meter: TokenMeter, opts: FeatureOpts): FeatureModel =
    fit(ds, CellTable.tuples(ds.dirty, ds.attrs), corr, profile, meter, opts)

  /** Fit the feature statistics and reason the initial criteria from a
    * random sample of the tid-sorted dirty `tuples`, the tuples of
    * `ds.tuples` (metered LLM calls). The statistics are `ds.stats` plus the
    * co-occurrences of the correlated pairs it does not hold yet.
    */
  def fit(ds: EDataset, tuples: Array[(Long, Map[String, String])],
          corr: Map[String, Seq[String]], profile: LLMProfile, meter: TokenMeter,
          opts: FeatureOpts): FeatureModel = {
    val attrs = ds.attrs

    // The (attr, correlated attr) pairs the vicinity feature reads.
    val pairs: Seq[(String, String)] =
      if (!opts.useCorr) Seq.empty
      else corr.toSeq.flatMap { case (a, qs) => qs.take(opts.corrK).map(a -> _) }

    require(tuples.length.toLong == ds.stats.n,
            s"${tuples.length} tuples, but ${ds.name}'s stats count ${ds.stats.n}")
    val stats = ds.stats.withPairs(tuples, pairs)
    val n = stats.n

    // Distribution analysis (the executed "analysis functions" of Fig. 5),
    // from each attribute's value and L2 pattern counts.
    val dists = attrs.map { a =>
      val vc = stats.values(a).toSeq
      val pc = stats.patterns((a, 2)).toSeq
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
        val sampleRows = sampleTuples(ds.name, tuples, CriteriaSampleSize)
        attrs.map { a =>
          val samples = sampleRows.map(r => Criteria.Sample(r.getOrElse(a, ""), r))
          a -> SimLLM.reasonCriteria(profile, meter, ds.name, a, samples,
                                     corr.getOrElse(a, Seq.empty).take(opts.corrK))
        }.toMap
      }

    new FeatureModel(ds.name, attrs, corr, stats, criteria, dists, opts)
  }

  /** Deterministic random sample of at most `size` of the tid-sorted `tuples`:
    * the `size` kept tuples with the smallest tids, so the sample does not
    * depend on how the table was partitioned.
    */
  private[core] def sampleTuples(dsName: String, tuples: Array[(Long, Map[String, String])],
                                 size: Int): Seq[Map[String, String]] = {
    val frac = math.min(1.0, size * 3.0 / math.max(1, tuples.length))
    tuples.iterator.collect { case (tid, row) if Rng.bool(frac, dsName, "critSample", tid) => row }
      .take(size).toSeq
  }

  /** Featurize every cell on the executors: (tid, attr, value, features), with
    * the broadcast model's `tupleVecs`.
    */
  def transform(spark: SparkSession, ds: EDataset, model: FeatureModel): DataFrame = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(model)
    val attrs = model.attrs
    ds.dirty.flatMap { r =>
      val row = attrs.map(a => a -> r.getAs[String](a)).toMap
      attrs.zip(bc.value.tupleVecs(row)).map { case (a, f) =>
        (r.getAs[Long]("tid"), a, row(a), Vectors.dense(f): Vector)
      }
    }.toDF("tid", "attr", "value", "features")
  }
}
