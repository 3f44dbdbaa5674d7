package repro.core

import repro.SparkSpec
import repro.data.Datasets
import repro.exp.Runner

/** End-to-end smoke: a small Hospital run through the whole pipeline. */
class SmokeSpec extends SparkSpec {

  test("ZeroED end-to-end on hospital at scale 0.3") {
    val ds = Datasets.load(spark, "hospital", 0.3)
    val t0 = System.nanoTime()
    val res = ZeroED.run(spark, ds)
    val ms = (System.nanoTime() - t0) / 1000000
    ds.unpersist()
    info(s"hospital@0.3: ${res.metrics} tokens=${res.inputTokens}/${res.outputTokens} " +
         s"sampled=${res.nSampledCells} in ${ms}ms")
    assert(res.metrics.f1 > 0.3, s"unexpectedly low F1: ${res.metrics}")
  }

  test("dBoost baseline on hospital at scale 0.3") {
    val prf = Runner.baseline(spark, "dboost", "hospital", 0.3)
    info(s"dboost hospital@0.3: $prf")
    assert(prf.f1 > 0.05)
  }
}
