package repro.core

import org.apache.spark.ml.linalg.DenseVector
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.EDataset
import repro.llm.{Guideline, LLMProfile, ModelProfiles, SimLLM}
import repro.util.{Par, TokenMeter}

/** End-to-end ZeroED configuration. The boolean switches are the Table IV
  * ablations; profile the Table V axis; clusterMethod the Table VI axis.
  */
final case class ZeroEDConfig(
    profile: LLMProfile = ModelProfiles.default,
    labelRate: Double = 0.05,
    corrK: Int = 2,
    useGuidelines: Boolean = true,
    useCriteria: Boolean = true,
    useCorr: Boolean = true,
    useVerify: Boolean = true,
    clusterMethod: String = "kmeans",
    batchSize: Int = 20,
    seed: Long = 42L,
)

final case class ZeroEDResult(
    metrics: PRF,
    inputTokens: Long,
    outputTokens: Long,
    nSampledCells: Int,
)

/** The four-step hybrid pipeline of Section III: feature representation →
  * sampling + LLM labeling → training-data construction → detector.
  */
object ZeroED {

  def run(spark: SparkSession, ds: EDataset, cfg: ZeroEDConfig = ZeroEDConfig()): ZeroEDResult = {
    val meter = TokenMeter(spark.sparkContext, s"zeroed-${ds.name}-${cfg.profile.name}")

    // ---- step 1: feature representation (Section III-B), on the tuples read
    // to the driver at load (DESIGN.md § Spark layering)
    val tuples = ds.tuples
    val corr: Map[String, Seq[String]] =
      if (cfg.useCorr) Correlation.topK(tuples, ds.attrs, cfg.corrK)
      else ds.attrs.map(_ -> Seq.empty[String]).toMap
    val opts = FeatureOpts(corrK = cfg.corrK, useCriteria = cfg.useCriteria,
                           useCorr = cfg.useCorr)
    val model = FeatureModel.fit(ds, tuples, corr, cfg.profile, meter, opts)
    val attrCells = model.featurize(tuples)
    val rowCtx = tuples.toMap
    val errTypes = ds.errTypes

    // ---- step 2: clustering-based sampling + guideline-driven labeling
    val s = Sampling.clusterCount(tuples.length.toLong, cfg.labelRate)
    def perAttr[T](f: String => T): Seq[(String, T)] = Par.map(ds.attrs)(a => a -> f(a))
    val clusters: Map[String, Sampling.AttrClusters] = perAttr { a =>
      Sampling.cluster(cfg.clusterMethod, a, attrCells(a).feats, s, s"${ds.name}:${cfg.seed}")
    }.toMap

    val guidelines: Map[String, Guideline] =
      if (!cfg.useGuidelines) Map.empty
      else ds.attrs.map { a =>
        val sampleVals = clusters(a).sampledIdx.take(20).map(attrCells(a).values).toSeq
        a -> SimLLM.makeGuideline(cfg.profile, meter, ds.name, a, model.dists(a), sampleVals)
      }.toMap

    val sampleLabels = Labeling.labelSamples(cfg.profile, meter, ds.name,
      attrCells, clusters, rowCtx, errTypes, corr, guidelines,
      useCtx = cfg.useCorr, batchSize = cfg.batchSize)

    // ---- step 3: training-data construction (Algorithm 1)
    val outcome = TrainData.construct(cfg.profile, meter, ds.name, model,
      attrCells, clusters, sampleLabels, rowCtx, corr, cfg.useVerify)

    // ---- step 4: detector training and full prediction (Section III-D), on the driver
    val tids = attrCells(ds.attrs.head).tids  // shared by every attribute
    val kept = outcome.labels.filter(_.keep)
      .map(c => (attrCells(c.attr).feats(java.util.Arrays.binarySearch(tids, c.tid)), c.label))
    val predict = Detector.fit(kept ++ outcome.augmented.map(a => (a.features, true)),
                               model.totalDim, cfg.seed)
    val pred = perAttr { a =>
      val c = attrCells(a)
      c.tids.indices.map(i => (c.tids(i), a) -> predict(c.feats(i)))
    }.flatMap(_._2)
    val prf = Metrics.count(pred, errTypes.keySet)
    ZeroEDResult(prf, meter.inputTokens, meter.outputTokens, sampleLabels.size)
  }

  /** Collect the featurized cell table into per-attribute parallel arrays sorted
    * by tid; each holds every tuple, so index `i` is one tuple in every attribute.
    */
  def collectCells(cellsF: DataFrame, ds: EDataset): Map[String, Labeling.AttrCells] = {
    val rows = cellsF.collect()
    val grouped = rows.groupBy(_.getAs[String]("attr"))
    ds.attrs.map { a =>
      val rs = grouped.getOrElse(a, Array.empty).sortBy(_.getAs[Long]("tid"))
      a -> Labeling.AttrCells(a,
        rs.map(_.getAs[Long]("tid")),
        rs.map(_.getAs[String]("value")),
        rs.map(_.getAs[DenseVector]("features").toArray))
    }.toMap
  }
}
