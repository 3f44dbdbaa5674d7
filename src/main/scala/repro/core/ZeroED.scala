package repro.core

import org.apache.spark.ml.linalg.{DenseVector, Vectors}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.data.EDataset
import repro.llm.{Guideline, LLMProfile, ModelProfiles, SimLLM}
import repro.util.TokenMeter

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

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
    /** Quality of the propagated training labels themselves (diagnostic:
      * the classifier cannot beat its teacher by much).
      */
    propagation: PRF,
)

/** The four-step hybrid pipeline of Section III: feature representation →
  * sampling + LLM labeling → training-data construction → detector.
  */
object ZeroED {

  def run(spark: SparkSession, ds: EDataset, cfg: ZeroEDConfig = ZeroEDConfig()): ZeroEDResult = {
    val meter = TokenMeter(spark.sparkContext, s"zeroed-${ds.name}-${cfg.profile.name}")

    // ---- step 1: feature representation (Section III-B)
    val corr: Map[String, Seq[String]] =
      if (cfg.useCorr) Correlation.topK(ds.dirty, ds.attrs, cfg.corrK)
      else ds.attrs.map(_ -> Seq.empty[String]).toMap
    val opts = FeatureOpts(corrK = cfg.corrK, useCriteria = cfg.useCriteria,
                           useCorr = cfg.useCorr)
    val model = FeatureModel.fit(spark, ds, corr, cfg.profile, meter, opts)
    val cellsF = FeatureModel.transform(spark, ds, model).cache()

    // Driver-side views for the sampled LLM workflows (datasets are small;
    // DESIGN.md § Spark layering).
    val attrCells: Map[String, Labeling.AttrCells] = collectCells(cellsF, ds)
    val rowCtx: Map[Long, Map[String, String]] = ds.dirty.collect().map { r =>
      r.getAs[Long]("tid") -> ds.attrs.map(a => a -> r.getAs[String](a)).toMap
    }.toMap
    val errTypes: Map[(Long, String), String] = ds.mask.collect().map { r =>
      (r.getAs[Long]("tid"), r.getAs[String]("attr")) -> r.getAs[String]("err_type")
    }.toMap

    // ---- step 2: clustering-based sampling + guideline-driven labeling
    val s = Sampling.clusterCount(rowCtx.size.toLong, cfg.labelRate)
    implicit val ec: ExecutionContext = ExecutionContext.global
    val clusters: Map[String, Sampling.AttrClusters] =
      Await.result(Future.traverse(ds.attrs.toSeq) { a =>
        Future(a -> Sampling.cluster(cfg.clusterMethod, a, attrCells(a).feats, s,
                                     s"${ds.name}:${cfg.seed}"))
      }, Duration.Inf).toMap

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

    // ---- step 4: detector training and full prediction (Section III-D)
    import spark.implicits._
    val labelsDf = outcome.labels.toDF("tid", "attr", "label", "keep")
    val propagatedTrain = cellsF.join(labelsDf.where($"keep"), Seq("tid", "attr"))
      .select($"features", when($"label", 1.0).otherwise(0.0).as("label"))
    val augTrain = outcome.augmented
      .map(a => (Vectors.dense(a.features).asInstanceOf[org.apache.spark.ml.linalg.Vector], 1.0))
      .toDF("features", "label")
    val train = propagatedTrain.unionAll(augTrain)

    val pred = Detector.trainPredict(spark, train, cellsF, model.totalDim, cfg.seed)
    val prf = Metrics.evaluate(pred, ds.mask)
    val propPrf = Metrics.evaluate(
      labelsDf.select($"tid", $"attr", $"label".as("pred")), ds.mask)

    cellsF.unpersist()
    ZeroEDResult(prf, meter.inputTokens, meter.outputTokens, sampleLabels.size, propPrf)
  }

  /** Collect the featurized cell table into per-attribute parallel arrays. */
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
