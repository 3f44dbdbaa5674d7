package zbench

import org.apache.spark.ml.linalg.{Vector, Vectors}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import org.apache.spark.util.SizeEstimator
import repro.core._
import repro.data.EDataset
import repro.llm.{Guideline, SimLLM}
import repro.util.TokenMeter

import scala.collection.mutable
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

/** The traced passes. They re-issue the public layer calls of `ZeroED.run`
  * (and of the baseline pass) in the same order, with a span around each.
  * Lazy results are materialized inside their own span, so their work is
  * not charged to the layer that first consumes them. `metricsSpan` names
  * the evaluation span, so that a second pass in the same process can keep
  * its evaluation apart from the first pass's.
  */
final class Traced(spark: SparkSession, tr: Tracer) {

  /** Layer counts of the ZeroED pass, by per-layer metric name. */
  val counts: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty

  def zeroed(ds: EDataset, seeds: Seeds, metricsSpan: String): ZeroEDOut = {
    val nTuples = ds.dirty.count()
    val stride = math.max(1L, nTuples / Correlation.MaxSampleTuples)
    counts("correlation.sample_rows") = ((nTuples + stride - 1) / stride).toDouble
    tr.span("zeroed")(zeroedSpans(ds, seeds, metricsSpan))
  }

  private def zeroedSpans(ds: EDataset, seeds: Seeds, metricsSpan: String): ZeroEDOut = {
    val cfg = Workloads.config(seeds)
    val meter = TokenMeter(spark.sparkContext, s"zeroed-${ds.name}-${cfg.profile.name}")
    def metered[T](prefix: String)(body: => T): T = {
      val calls0 = meter.input.count; val tokens0 = meter.totalTokens
      val out = body
      counts(s"$prefix.calls") = (meter.input.count - calls0).toDouble
      counts(s"$prefix.tokens") = (meter.totalTokens - tokens0).toDouble
      out
    }

    // ---- step 1: feature representation
    val corr: Map[String, Seq[String]] = tr.span("correlation") {
      if (cfg.useCorr) Correlation.topK(ds.dirty, ds.attrs, cfg.corrK)
      else ds.attrs.map(_ -> Seq.empty[String]).toMap
    }

    val opts = FeatureOpts(corrK = cfg.corrK, useCriteria = cfg.useCriteria, useCorr = cfg.useCorr)
    val model = tr.span("features.fit") {
      metered("features.fit")(FeatureModel.fit(spark, ds, corr, cfg.profile, meter, opts))
    }
    val cellsF = tr.span("features.transform") {
      val df = FeatureModel.transform(spark, ds, model).repartition(8).cache()
      df.count()
      df
    }

    val (attrCells, rowCtx, errTypes) = tr.span("collect") {
      val attrCells = ZeroED.collectCells(cellsF, ds)
      val rowCtx: Map[Long, Map[String, String]] = ds.dirty.collect().map { r =>
        r.getAs[Long]("tid") -> ds.attrs.map(a => a -> r.getAs[String](a)).toMap
      }.toMap
      val errTypes: Map[(Long, String), String] = ds.mask.collect().map { r =>
        (r.getAs[Long]("tid"), r.getAs[String]("attr")) -> r.getAs[String]("err_type")
      }.toMap
      (attrCells, rowCtx, errTypes)
    }
    counts("collect.rows") =
      (attrCells.values.map(_.size).sum + rowCtx.size + errTypes.size).toDouble
    counts("collect.driver_mb") =
      (SizeEstimator.estimate(attrCells) + SizeEstimator.estimate(rowCtx) +
       SizeEstimator.estimate(errTypes)) / 1048576.0

    // ---- step 2: clustering-based sampling + guideline-driven labeling
    val s = Sampling.clusterCount(rowCtx.size.toLong, cfg.labelRate)
    val clusters: Map[String, Sampling.AttrClusters] = tr.span("sampling") {
      implicit val ec: ExecutionContext = ExecutionContext.global
      Await.result(Future.traverse(ds.attrs.toSeq) { a =>
        Future(a -> Sampling.cluster(cfg.clusterMethod, a, attrCells(a).feats, s,
                                     s"${ds.name}:${cfg.seed}"))
      }, Duration.Inf).toMap
    }
    counts("sampling.points") = attrCells.values.map(_.size).sum.toDouble
    counts("sampling.clusters") = clusters.values.map(_.reps.length).sum.toDouble

    val guidelines: Map[String, Guideline] = tr.span("guidelines") {
      metered("guidelines") {
        if (!cfg.useGuidelines) Map.empty
        else ds.attrs.map { a =>
          val sampleVals = clusters(a).sampledIdx.take(20).map(attrCells(a).values).toSeq
          a -> SimLLM.makeGuideline(cfg.profile, meter, ds.name, a,
                                   model.dists(a), sampleVals)
        }.toMap
      }
    }

    val sampleLabels = tr.span("labeling") {
      metered("labeling") {
        Labeling.labelSamples(cfg.profile, meter, ds.name, attrCells, clusters, rowCtx,
          errTypes, corr, guidelines, useCtx = cfg.useCorr, batchSize = cfg.batchSize)
      }
    }
    def isError(tid: Long, attr: String): Boolean = errTypes.getOrElse((tid, attr), "") != ""
    counts("labeling.accuracy") =
      share(sampleLabels.toSeq) { case ((a, t), l) => l == isError(t, a) }

    // ---- step 3: training-data construction (Algorithm 1)
    val outcome = tr.span("traindata") {
      metered("traindata") {
        TrainData.construct(cfg.profile, meter, ds.name, model, attrCells, clusters,
                            sampleLabels, rowCtx, corr, cfg.useVerify)
      }
    }
    val kept = outcome.labels.filter(_.keep)
    counts("traindata.propagated") = outcome.labels.size.toDouble
    counts("traindata.kept") = kept.size.toDouble
    counts("traindata.augmented") = outcome.augmented.size.toDouble
    counts("traindata.label_accuracy") = share(kept)(c => c.label == isError(c.tid, c.attr))
    counts("traindata.kept_ratio") = kept.size.toDouble / math.max(1, outcome.labels.size)

    // ---- step 4: detector training and full prediction (glue as in ZeroED.run)
    import spark.implicits._
    val labelsDf = outcome.labels.map(c => (c.tid, c.attr, c.label, c.keep))
      .toDF("tid", "attr", "label", "keep")
    val propagatedTrain = cellsF.join(labelsDf.where($"keep"), Seq("tid", "attr"))
      .select($"features", when($"label", 1.0).otherwise(0.0).as("label"))
    val augTrain = outcome.augmented
      .map(a => (Vectors.dense(a.features): Vector, 1.0))
      .toDF("features", "label")
    val train = propagatedTrain.unionAll(augTrain).repartition(8).cache()
    train.count()

    val pred = tr.span("detector.fit") {
      Detector.trainPredict(spark, train, cellsF, model.totalDim, cfg.seed).cache()
    }
    counts("detector.predict.cells") = tr.span("detector.predict")(pred.count()).toDouble
    val prf = tr.span(metricsSpan) {
      val prf = Metrics.evaluate(pred, ds.mask)
      Metrics.evaluate(labelsDf.select($"tid", $"attr", $"label".as("pred")), ds.mask)
      prf
    }

    cellsF.unpersist(); train.unpersist(); pred.unpersist()
    ZeroEDOut(prf.f1, meter.totalTokens, sampleLabels.size)
  }

  def baselines(ds: EDataset, metricsSpan: String): BaselinesOut = {
    var tokens = 0L
    val preds = Baselines.methods.map { m =>
      m -> tr.span(s"baselines.$m") {
        val (pred, t) = Baselines.detect(spark, ds, m)
        tokens += t
        val cached = pred.cache()
        cached.count()
        cached
      }
    }
    val f1 = tr.span(metricsSpan) {
      preds.map { case (m, p) => m -> Metrics.evaluate(p, ds.mask).f1 }.toMap
    }
    preds.foreach(_._2.unpersist())
    BaselinesOut(f1, tokens)
  }

  private def share[T](xs: Seq[T])(ok: T => Boolean): Double =
    if (xs.isEmpty) 0.0 else xs.count(ok).toDouble / xs.size
}
