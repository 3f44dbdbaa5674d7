package repro.llm

import repro.{SparkSpec, TestData}
import repro.util.TokenMeter

class SimLLMSpec extends SparkSpec {

  private val p = ModelProfiles.qwen72b

  private def cell(i: Int, errType: String) =
    SimLLM.Cell(i.toLong, "a", s"v$i", Map("b" -> "ctx"), errType)

  test("labelOne is deterministic") {
    val c = cell(1, "T")
    assert(SimLLM.labelOne(p, "ds", c, useGuide = true, useCtx = true) ==
           SimLLM.labelOne(p, "ds", c, useGuide = true, useCtx = true))
  }

  test("labeling hits the calibrated detection rate on typos") {
    val n = 4000
    val hits = (0 until n).count(i =>
      SimLLM.labelOne(p, "cal", cell(i, "T"), useGuide = true, useCtx = true))
    assert(math.abs(hits.toDouble / n - p.detect("T")) < 0.03)
  }

  test("labeling hits the calibrated false-positive rate on clean cells") {
    val n = 4000
    val hits = (0 until n).count(i =>
      SimLLM.labelOne(p, "cal", cell(i, ""), useGuide = true, useCtx = true))
    assert(math.abs(hits.toDouble / n - p.cleanFp) < 0.02)
  }

  test("guidelines raise PV detection") {
    val n = 4000
    val withG = (0 until n).count(i =>
      SimLLM.labelOne(p, "g", cell(i, "PV"), useGuide = true, useCtx = true))
    val without = (0 until n).count(i =>
      SimLLM.labelOne(p, "g", cell(i, "PV"), useGuide = false, useCtx = true))
    assert(withG > without + n / 10)
  }

  test("missing context suppresses RV detection") {
    val n = 4000
    val withCtx = (0 until n).count(i =>
      SimLLM.labelOne(p, "c", cell(i, "RV"), useGuide = true, useCtx = true))
    val without = (0 until n).count(i =>
      SimLLM.labelOne(p, "c", cell(i, "RV"), useGuide = true, useCtx = false))
    assert(without < withCtx / 2 + n / 20)
  }

  test("labelBatch returns aligned predictions and meters tokens") {
    val m = TokenMeter.local()
    val batch = (0 until 20).map(i => cell(i, if (i % 2 == 0) "MV" else ""))
    val preds = SimLLM.labelBatch(p, m, "ds", "a", batch, None, useCtx = true)
    assert(preds.size == batch.size)
    assert(m.inputTokens > 0 && m.outputTokens > 0)
  }

  test("reasonCriteria returns criteria and meters both directions") {
    val m = TokenMeter.local()
    val samples = (0 until 30).map(i => Criteria.Sample(s"${i % 5}", Map("b" -> "x")))
    val cs = SimLLM.reasonCriteria(p, m, "ds", "a", samples, Seq("b"))
    assert(cs.nonEmpty)
    assert(m.inputTokens > 0 && m.outputTokens > 0)
  }

  test("makeGuideline meters the two-step generation") {
    val m = TokenMeter.local()
    val dist = AttrDist("a", 100, Seq(("x", 10L)), Seq(("L[1]", 90L)), None, 1)
    val g = SimLLM.makeGuideline(p, m, "ds", "a", dist, Seq("x", "y"))
    assert(g.attr == "a")
    assert(m.input.value > 0)
  }

  test("fmedTuple judges every attribute of the tuple") {
    val m = TokenMeter.local()
    val preds = SimLLM.fmedTuple(ModelProfiles.fmEd, m, "ds", 3L,
      Seq("a", "b", "c"), Seq("1", "", "3"), Seq("", "MV", ""))
    assert(preds.size == 3)
    assert(m.inputTokens > 0)
  }

  test("fmedTuple finds missing values far more often than rule violations") {
    val m = TokenMeter.local()
    val n = 2000
    val mv = (0 until n).count(i => SimLLM.fmedTuple(ModelProfiles.fmEd, m, "r", i.toLong,
      Seq("a"), Seq(""), Seq("MV")).head)
    val rv = (0 until n).count(i => SimLLM.fmedTuple(ModelProfiles.fmEd, m, "r2", i.toLong,
      Seq("a"), Seq("x"), Seq("RV")).head)
    assert(mv > 3 * rv)
  }

  test("augmentErrors produces n mostly-different variants") {
    val m = TokenMeter.local()
    val out = SimLLM.augmentErrors(p, m, "ds", "a",
      Seq("birmingham", "montgomery", "mobile"), 50)
    assert(out.size == 50)
    val changed = out.count(v => !Seq("birmingham", "montgomery", "mobile").contains(v))
    assert(changed > 35, s"only $changed changed") // augQuality = 0.9
  }

  test("augmentErrors with no sources or zero n is empty") {
    val m = TokenMeter.local()
    assert(SimLLM.augmentErrors(p, m, "d", "a", Seq.empty, 5).isEmpty)
    assert(SimLLM.augmentErrors(p, m, "d", "a", Seq("x"), 0).isEmpty)
  }

  test("contrastiveCriteria returns refined criteria") {
    val m = TokenMeter.local()
    val clean = (1 to 40).map(i => Criteria.Sample((50 + i % 5).toString, Map.empty))
    val err = Seq(Criteria.Sample("", Map.empty))
    val cs = SimLLM.contrastiveCriteria(p, m, "ds", "a", clean, err, Seq.empty)
    assert(cs.nonEmpty)
    assert(!cs.head.eval("", Map.empty)) // separates the empty error
  }

  test("weaker profiles generate fewer/worse criteria on average") {
    val m = TokenMeter.local()
    val samples = (0 until 60).map(i =>
      Criteria.Sample(f"${i % 7}%d${i % 3}%d", Map("b" -> s"${i % 7}")))
    val strong = (0 until 10).map(r => SimLLM.reasonCriteria(ModelProfiles.qwen72b,
      m, s"s$r", "a", samples, Seq("b")).size).sum
    val weak = (0 until 10).map(r => SimLLM.reasonCriteria(ModelProfiles.qwen7b,
      m, s"s$r", "a", samples, Seq("b")).size).sum
    assert(strong >= weak)
  }

  test("errorTypes holds exactly the mask's error cells") {
    val mask = TestData.hospitalSmall(spark).mask
    val errors = mask.collect().filter(_.getAs[Boolean]("is_error")).map { r =>
      (r.getAs[Long]("tid"), r.getAs[String]("attr")) -> r.getAs[String]("err_type")
    }.toMap
    assert(errors.nonEmpty && errors.values.forall(_.nonEmpty))
    assert(TestData.errorTypes(mask) == errors)
  }
}
