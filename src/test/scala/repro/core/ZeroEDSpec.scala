package repro.core

import repro.{SparkSpec, TestData}
import repro.data.{AttrSpec, CellTable, DatasetSpec, Datasets, EDataset, Num}
import repro.llm.ModelProfiles
import repro.util.TokenMeter

/** Pipeline-level behavior beyond the smoke run (small scales for speed). */
class ZeroEDSpec extends SparkSpec {

  private lazy val ds = TestData.hospitalSmall(spark)
  /** One run of the default config, shared by the tests that need it. */
  private lazy val default = ZeroED.run(spark, ds)

  test("full config beats the no-criteria ablation on noisy hospital") {
    val full = default
    val noCrit = ZeroED.run(spark, ds, ZeroEDConfig(useCriteria = false))
    info(s"full=${full.metrics} noCrit=${noCrit.metrics}")
    // loose shape check at small scale (200 tuples is noisy); the faithful
    // comparison is TableIVBench at paper scale
    assert(full.metrics.f1 + 0.15 > noCrit.metrics.f1,
           s"w/o Crit. unexpectedly much better: ${noCrit.metrics} vs ${full.metrics}")
  }

  test("w/o Corr. uses base-dim features only and still runs") {
    val r = ZeroED.run(spark, ds, ZeroEDConfig(useCorr = false))
    assert(r.metrics.f1 > 0.1)
  }

  test("label rate controls the number of sampled cells") {
    val r1 = ZeroED.run(spark, ds, ZeroEDConfig(labelRate = 0.01))
    val r5 = default // labelRate = 0.05
    assert(r5.nSampledCells > r1.nSampledCells)
  }

  test("a weaker LLM profile yields lower precision") {
    val strong = default
    val weak = ZeroED.run(spark, ds, ZeroEDConfig(profile = ModelProfiles.gpt4oMini))
    info(s"strong=${strong.metrics} weak=${weak.metrics}")
    assert(weak.metrics.precision < strong.metrics.precision + 0.05)
  }

  test("token accounting is populated and result is deterministic-ish") {
    val r = default
    assert(r.inputTokens > 0 && r.outputTokens > 0)
    val r2 = ZeroED.run(spark, ds)
    assert(r.metrics == r2.metrics, s"${r.metrics} vs ${r2.metrics}")
  }

  test("golden: the default run on hospitalSmall keeps its outputs") {
    // Pinned outputs: a change to any of them is a change of behaviour, which
    // a refactor must not make.
    val r = default
    assert(r.metrics == PRF(tp = 108, fp = 21, fn = 99, tn = 3772), r.metrics.toString)
    assert((r.inputTokens, r.outputTokens) == (72176L, 15398L))
    assert(r.nSampledCells == 200)
  }

  test("a run reads the mask once") {
    // The mask is a view of `wide`: load reads `wide` once, and the run reads
    // the ground truth held since then.
    val reads = spark.sparkContext.longAccumulator("wide-partition-reads")
    val wide = spark.createDataFrame(
      ds.wide.rdd.mapPartitions { it => reads.add(1); it }, ds.wide.schema)
    ZeroED.run(spark, Datasets.fromWide(ds.spec, wide))
    val parts = wide.rdd.getNumPartitions
    assert(reads.value == parts, s"${reads.value} partition reads of a $parts-partition table")
  }

  test("a run starts no Spark job") {
    // It reads the tuples and the ground truth the dataset holds since load.
    val input = ds  // loaded outside the count
    val jobs = jobsStarted(ZeroED.run(spark, input))
    assert(jobs == 0, s"$jobs Spark jobs")
  }

  test("driver-side cells equal the collected executor-side featurization") {
    for (d <- Seq(ds, TestData.flightsSmall(spark))) {
      val tuples = CellTable.tuples(d.dirty, d.attrs)
      val model = FeatureModel.fit(d, tuples, Correlation.topK(tuples, d.attrs, 2),
                                   ModelProfiles.qwen72b, TokenMeter.local(), FeatureOpts())
      val driver = model.featurize(tuples)
      val executor = ZeroED.collectCells(FeatureModel.transform(spark, d, model), d)
      assert(driver.keySet == d.attrs.toSet && executor.keySet == driver.keySet)
      d.attrs.foreach { a =>
        val (x, y) = (driver(a), executor(a))
        assert(x.tids.toSeq == y.tids.toSeq, s"${d.name}.$a tids")
        assert(x.values.toSeq == y.values.toSeq, s"${d.name}.$a values")
        assert(x.feats.map(_.toSeq).toSeq == y.feats.map(_.toSeq).toSeq, s"${d.name}.$a features")
      }
    }
  }

  test("results do not depend on how the input tables are partitioned") {
    def run(n: Int) = ZeroED.run(spark,
      ds.copy(tuples = CellTable.tuples(ds.dirty.repartition(n), ds.attrs),
              errTypes = TestData.errorTypes(ds.mask.repartition(n))))
    val (one, six) = (run(1), run(6))
    assert(one.metrics == six.metrics, s"${one.metrics} vs ${six.metrics}")
    assert((one.inputTokens, one.outputTokens) == (six.inputTokens, six.outputTokens))
    assert(one.nSampledCells == six.nSampledCells)
  }
  /** Two runs on `d` return, score every cell once and agree; the first is
    * returned.
    */
  private def assertWellFormed(d: EDataset): ZeroEDResult = {
    val (a, b) = (ZeroED.run(spark, d), ZeroED.run(spark, d))
    val m = a.metrics
    assert(m.tp + m.fp + m.fn + m.tn == d.tuples.length.toLong * d.attrs.size, m.toString)
    assert(a == b, s"$a vs $b")
    a
  }

  test("hospital at the generator's minimum of 50 tuples runs and scores every cell") {
    val d = Datasets.load(spark, "hospital", 0.01)
    try {
      assert(d.tuples.length == 50)
      assertWellFormed(d)
    } finally d.unpersist()
  }

  test("a one-attribute table runs and scores every cell") {
    val spec = DatasetSpec("one-attr", Vector(AttrSpec("score", Num(1, 100, 0))), 200, Seq.empty,
      Map("MV" -> 2.0, "PV" -> 2.0, "T" -> 2.0, "O" -> 2.0))
    val d = Datasets.generate(spark, spec)
    try {
      assert(d.tuples.length == 200 && d.errTypes.nonEmpty)
      assertWellFormed(d)
    } finally d.unpersist()
  }

  test("a table without errors runs and scores every cell") {
    val spec = Datasets.byName("hospital")
    val d = Datasets.generate(spark, spec.copy(rates = spec.rates.view.mapValues(_ => 0.0).toMap),
                              0.1)
    try {
      assert(d.errTypes.isEmpty)
      val m = assertWellFormed(d).metrics
      assert(m.tp == 0 && m.fn == 0, m.toString)
    } finally d.unpersist()
  }
}
