package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.llm.{AttrDist, ModelProfiles, NotEmpty}
import repro.util.TokenMeter

class TrainDataSpec extends AnyFunSuite {

  private val attrs = Vector("a", "b")
  private val model = new FeatureModel(
    "t", attrs, Map("a" -> Seq("b"), "b" -> Seq("a")),
    stats = CellStats(10L, Map("a" -> Map("10" -> 5L)), Map.empty, Map.empty),
    criteria = Map("a" -> Seq(NotEmpty())),
    dists = attrs.map(a => a -> AttrDist(a, 10, Seq.empty, Seq.empty, None, 0)).toMap,
    opts = FeatureOpts(corrK = 1))

  private def cells(values: Seq[String]) = Labeling.AttrCells(
    "a", values.indices.map(_.toLong).toArray, values.toArray,
    values.indices.map(i => Array(i.toDouble)).toArray)

  private def ctx(values: Seq[String]): Map[Long, Map[String, String]] =
    values.indices.map(i => i.toLong -> Map("a" -> values(i), "b" -> "ctx")).toMap

  test("labels propagate from representatives to whole clusters") {
    val vals = Seq("10", "11", "12", "13", "14", "", "", "", "", "")
    val cl = Sampling.AttrClusters("a",
      assignments = Array(0, 0, 0, 0, 0, 1, 1, 1, 1, 1), reps = Array(0, 5))
    val out = TrainData.construct(ModelProfiles.qwen72b, TokenMeter.local(), "t",
      model, Map("a" -> cells(vals)),
      Map("a" -> cl),
      sampleLabels = Map(("a", 0L) -> false, ("a", 5L) -> true),
      rowCtx = ctx(vals), corr = Map("a" -> Seq("b")), useVerify = false)
    val byTid = out.labels.map(l => l.tid -> l.label).toMap
    (0L to 4L).foreach(t => assert(!byTid(t)))
    (5L to 9L).foreach(t => assert(byTid(t)))
    assert(out.labels.forall(_.keep))
    assert(out.augmented.isEmpty)
    assert(out.refined("a") == Seq(NotEmpty())) // initial criteria kept
  }

  test("clusters without a labeled representative propagate nothing") {
    val vals = Seq("10", "11", "12", "13")
    val cl = Sampling.AttrClusters("a", Array(0, 0, 1, 1), Array(0, 2))
    val out = TrainData.construct(ModelProfiles.qwen72b, TokenMeter.local(), "t",
      model, Map("a" -> cells(vals)), Map("a" -> cl),
      sampleLabels = Map(("a", 0L) -> false), // cluster 1's rep unlabeled
      rowCtx = ctx(vals), corr = Map.empty, useVerify = false)
    assert(out.labels.map(_.tid).toSet == Set(0L, 1L))
  }

  test("verification refines criteria and keeps consistent clean labels") {
    val vals = (0 until 9).map(i => (50 + i).toString) :+ ""
    val cl = Sampling.AttrClusters("a",
      assignments = Array(0, 0, 0, 0, 0, 0, 0, 0, 0, 1), reps = Array(0, 9))
    val out = TrainData.construct(ModelProfiles.qwen72b, TokenMeter.local(), "t",
      model, Map("a" -> cells(vals)), Map("a" -> cl),
      sampleLabels = Map(("a", 0L) -> false, ("a", 9L) -> true),
      rowCtx = ctx(vals), corr = Map("a" -> Seq("b")), useVerify = true)
    assert(out.refined("a").nonEmpty)
    // clean numeric values pass the refined criteria and are kept
    val kept = out.labels.filter(l => !l.label && l.keep)
    assert(kept.size >= 7, s"kept only ${kept.size}")
    // augmentation balances the single error
    assert(out.augmented.nonEmpty)
    assert(out.augmented.forall(_.attr == "a"))
    assert(out.augmented.forall(_.features.length == model.totalDim))
  }

  test("augmentation respects the per-attribute cap") {
    val n = 900
    val vals = (0 until n).map(i => (100 + i % 37).toString)
    val cl = Sampling.AttrClusters("a", Array.fill(n)(0), Array(0))
    val out = TrainData.construct(ModelProfiles.qwen72b, TokenMeter.local(), "t",
      model, Map("a" -> cells(vals)), Map("a" -> cl),
      sampleLabels = Map(("a", 0L) -> false),
      rowCtx = ctx(vals), corr = Map.empty, useVerify = true)
    assert(out.augmented.size <= TrainData.AugmentCapPerAttr)
  }

  test("error labels are never dropped by verification") {
    val vals = Seq("", "", "", "10", "11", "12")
    val cl = Sampling.AttrClusters("a", Array(0, 0, 0, 1, 1, 1), Array(0, 3))
    val out = TrainData.construct(ModelProfiles.qwen72b, TokenMeter.local(), "t",
      model, Map("a" -> cells(vals)), Map("a" -> cl),
      sampleLabels = Map(("a", 0L) -> true, ("a", 3L) -> false),
      rowCtx = ctx(vals), corr = Map.empty, useVerify = true)
    out.labels.filter(_.label).foreach(l => assert(l.keep))
  }
}
