package repro.baselines

import org.apache.spark.ml.classification.LogisticRegression
import org.apache.spark.ml.linalg.Vectors
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.{GenerateExec, SparkPlan, UnionExec}
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.exchange.Exchange
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestData}
import repro.core.{CellStats, Metrics, PRF}
import repro.data.{AttrSpec, CellTable, CellTableSpec, DatasetSpec, Datasets, EDataset, FD, Num}
import repro.llm.{ModelProfiles, SimLLM}
import repro.util.TokenMeter

class BaselinesSpec extends SparkSpec {

  private lazy val hospital = TestData.hospitalSmall(spark)
  private lazy val flights  = TestData.flightsSmall(spark)

  /** The FD-violation cells in SQL over the dirty table `d`: for each FD, the
    * lhs groups with more than one distinct rhs value, and both the lhs and
    * the rhs cell of every tuple in them.
    */
  private def fdOracleSql(fds: Seq[FD]): String = fds.flatMap { fd =>
    val bad = s"""SELECT "${fd.lhs}" AS k FROM d GROUP BY "${fd.lhs}"
                 |HAVING count(DISTINCT "${fd.rhs}") > 1""".stripMargin
    Seq(fd.lhs, fd.rhs).map(a =>
      s"""SELECT d.tid AS tid, '$a' AS attr FROM d JOIN ($bad) b ON d."${fd.lhs}" = b.k""")
  }.mkString("\nUNION\n")

  /** Every node of the physical plan `df` runs, through adaptive query
    * stages and cached relations.
    */
  private def physicalNodes(df: DataFrame): Seq[SparkPlan] = {
    def nodes(p: SparkPlan): Seq[SparkPlan] = p +: (p match {
      case a: AdaptiveSparkPlanExec => nodes(a.executedPlan)
      case q: QueryStageExec        => nodes(q.plan)
      case m: InMemoryTableScanExec => nodes(m.relation.cachedPlan)
      case _                        => p.children.flatMap(nodes)
    })
    nodes(df.queryExecution.executedPlan)
  }

  /** A plan is one pass over the tuples: no union, shuffle or generator. */
  private def assertOnePass(df: DataFrame): Unit = {
    val extra = physicalNodes(df).filter {
      case _: UnionExec | _: Exchange | _: GenerateExec => true
      case _                                            => false
    }
    assert(extra.isEmpty, df.queryExecution.executedPlan.treeString)
  }

  /** The six detectors, each as a function to its prediction table. */
  private val detectors = Seq[(String, EDataset => DataFrame)](
    "dBoost" -> (DBoost.detect(spark, _)), "Nadeef" -> (Nadeef.detect(spark, _)),
    "Katara" -> (Katara.detect(spark, _)), "ActiveClean" -> (ActiveClean.detect(spark, _)),
    "Raha" -> (Raha.detect(spark, _)), "FM_ED" -> (FMED.detect(spark, _).pred))

  private def rows(pred: DataFrame): Seq[(Long, String, Boolean)] =
    pred.collect().toSeq.map(r =>
      (r.getAs[Long]("tid"), r.getAs[String]("attr"), r.getAs[Boolean]("pred")))

  /** `pred` predicts for every cell of `ds`: its rows are distinct flagged
    * cells of the table, and evaluation scores each cell of the table once.
    */
  private def assertPredictsEveryCell(pred: DataFrame, ds: EDataset): Unit = {
    val got  = rows(pred)
    val tids = ds.tuples.map(_._1).toSet
    assert(got.nonEmpty && got.distinct.size == got.size && got.forall(_._3))
    assert(got.forall { case (t, a, _) => tids(t) && ds.attrs.contains(a) })
    val m = Metrics.evaluate(pred, ds.mask)
    assert(m.tp + m.fp + m.fn + m.tn == ds.dirty.count() * ds.attrs.size, m.toString)
  }

  // ---------------------------------------------------------------- contract
  test("every baseline's prediction table is its distinct flagged cells") {
    for (ds <- Seq(hospital, flights); (name, detect) <- detectors) {
      val got = rows(detect(ds))
      val tids = ds.tuples.map(_._1).toSet
      withClue(s"$name on ${ds.name}: ") {
        assert(got.distinct.size == got.size, "duplicate rows")
        assert(got.forall(_._3), "a row with pred = false")
        assert(got.forall { case (t, a, _) => tids(t) && ds.attrs.contains(a) },
               "a row off the table")
      }
    }
  }

  /** Each detector on `ds` returns, scores every cell of the mask once, and
    * gives the same table (and FM_ED the same tokens) on a rerun.
    */
  private def assertWellFormed(ds: EDataset): Unit = {
    val cells = ds.mask.count()
    for ((name, detect) <- detectors) withClue(s"$name on ${ds.name}: ") {
      val (a, b) = (detect(ds), detect(ds))
      val m = Metrics.evaluate(a, ds.mask)
      assert(m.tp + m.fp + m.fn + m.tn == cells, m.toString)
      assert(rows(a) == rows(b))
    }
    val (r1, r2) = (FMED.detect(spark, ds), FMED.detect(spark, ds))
    assert((r1.inputTokens, r1.outputTokens) == (r2.inputTokens, r2.outputTokens))
  }

  test("the baselines run on hospital at the generator's 50-tuple minimum") {
    val ds = Datasets.load(spark, "hospital", 0.01)
    try {
      assert(ds.tuples.length == 50)
      assertWellFormed(ds)
    } finally ds.unpersist()
  }

  test("the baselines run on a one-attribute table") {
    val spec = DatasetSpec("one-attr", Vector(AttrSpec("score", Num(1, 100, 0))), 200, Seq.empty,
      Map("MV" -> 2.0, "PV" -> 2.0, "T" -> 2.0, "O" -> 2.0))
    val ds = Datasets.generate(spark, spec)
    try {
      assert(ds.tuples.length == 200 && ds.errTypes.nonEmpty)
      assertWellFormed(ds)
    } finally ds.unpersist()
  }

  test("the baselines run on a table without errors") {
    val spec = Datasets.byName("hospital")
    val ds = Datasets.generate(spark, spec.copy(rates = spec.rates.view.mapValues(_ => 0.0).toMap), 0.1)
    try {
      assert(ds.errTypes.isEmpty)
      assertWellFormed(ds)
    } finally ds.unpersist()
  }

  // ------------------------------------------------------------------ dBoost
  test("dBoost predicts for every cell") {
    assertPredictsEveryCell(DBoost.detect(spark, hospital), hospital)
  }

  test("dBoost never flags empty values (no missing-value model)") {
    val pred = DBoost.detect(spark, flights).withColumnRenamed("pred", "p")
    val cells = CellTableSpec.cells(flights.dirty, flights.attrs)
    val flaggedEmpties = cells.where(col("value") === "")
      .join(pred, Seq("tid", "attr")).where(col("p")).count()
    assert(flaggedEmpties == 0L)
  }

  test("dBoost catches injected numeric outliers on hospital") {
    val pred = DBoost.detect(spark, hospital)
    val outliers = hospital.mask.where(col("err_type") === "O")
    val m = Metrics.evaluate(pred, outliers.withColumn("is_error", lit(true)))
    assert(m.recall > 0.5, s"outlier recall ${m.recall}")
  }

  // ------------------------------------------------------------------ Nadeef
  test("Nadeef flags every empty cell (not-null rules)") {
    val pred = Nadeef.detect(spark, flights).withColumnRenamed("pred", "p")
    val cells = CellTableSpec.cells(flights.dirty, flights.attrs)
    val empties = cells.where(col("value") === "")
    val missed = empties.join(pred, Seq("tid", "attr"), "left")
      .where(coalesce(col("p"), lit(false)) === false).count()
    assert(missed == 0L)
  }

  test("oracle: cells flagged by the shared FD predicate match DuckDB") {
    import spark.implicits._
    val fds = hospital.spec.fds
    val viol = Nadeef.fdViolations(fds,
      CellStats.count(CellTable.tuples(hospital.dirty, hospital.attrs), hospital.attrs,
                      FD.pairs(fds)))
    val flagged = hospital.dirty.collect().toSeq.flatMap { r =>
      Nadeef.fdFlagged(viol, r.getAs[String](_)).map(a => (r.getAs[Long]("tid"), a))
    }.toDF("tid", "attr")
    assert(flagged.count() > 0)
    Oracle.assertEquivalent(flagged, fdOracleSql(fds), "d" -> hospital.dirty)
  }

  test("Nadeef flags both sides of violated FD groups") {
    import spark.implicits._
    val pred = Nadeef.detect(spark, hospital)
    // Every oracle cell is flagged (and the oracle is not empty).
    Oracle.assertEquivalent(Seq((true, 0L)).toDF("any_fd", "missed"),
      s"""SELECT count(*) > 0 AS any_fd,
         |  count(*) FILTER (WHERE p.pred IS NULL OR p.pred <> 'true') AS missed
         |FROM (${fdOracleSql(hospital.spec.fds)}) o
         |LEFT JOIN p ON o.tid = p.tid AND o.attr = p.attr""".stripMargin,
      "d" -> hospital.dirty, "p" -> pred)
  }

  test("Nadeef recall on rule violations is substantial") {
    val pred = Nadeef.detect(spark, hospital)
    val rv = hospital.mask.where(col("err_type") === "RV" || col("err_type") === "")
    val m = Metrics.evaluate(pred, rv)
    assert(m.recall > 0.4, s"RV recall ${m.recall}")
  }

  // ------------------------------------------------------------------ Katara
  test("Katara finds nothing without a knowledge base (flights)") {
    val pred = Katara.detect(spark, flights)
    assert(pred.where(col("pred")).count() == 0L)
  }

  test("Katara flags KB-contradicting states on hospital with decent precision") {
    val pred = Katara.detect(spark, hospital)
    val m = Metrics.evaluate(pred, hospital.mask)
    assert(pred.where(col("pred")).count() > 0)
    assert(m.precision > 0.3, s"katara precision ${m.precision}")
    assert(m.recall < 0.4, s"katara recall should stay low: ${m.recall}")
  }

  test("Katara only ever flags KB rhs attributes") {
    val pred = Katara.detect(spark, hospital)
    val flagged = pred.where(col("pred")).select("attr").distinct()
      .collect().map(_.getString(0)).toSet
    assert(flagged.subsetOf(hospital.spec.kb.map(_.rhsAttr).toSet))
  }

  test("Katara is one pass over the tuples") {
    assertOnePass(Katara.detect(spark, hospital))
  }

  // ------------------------------------------------------------- ActiveClean
  test("ActiveClean produces predictions for every cell") {
    assertPredictsEveryCell(ActiveClean.detect(spark, flights), flights)
  }

  test("oracle: ActiveClean's logistic fit matches MLlib's LogisticRegression") {
    import spark.implicits._
    // Each set: its name, its training rows and the feature vectors to
    // predict (on a dataset, those of its distinct cells, so every cell).
    val fromData = Seq(hospital, flights).map { ds =>
      val stats = CellStats.count(CellTable.tuples(ds.dirty, ds.attrs), ds.attrs, Seq.empty)
      val features = ActiveClean.featurizer(stats)
      val cells = stats.valueCounts.keys.toSeq.map { case (a, v) => features(a, v) }
      (ds.name, ActiveClean.trainingRows(ds, stats), cells)
    }
    val rng = new scala.util.Random(5)
    // Overlapping classes (so the optimum is finite), uneven weights.
    val overlap = Seq.tabulate(60) { i =>
      val label = if (i % 3 == 0) 1.0 else 0.0
      (Array.fill(4)(rng.nextGaussian() + 0.7 * label), label, 0.5 + rng.nextDouble())
    }
    // The third feature is constant.
    val constant = overlap.map { case (f, l, w) => (f.updated(2, 0.25), l, w) }
    val synthetic = Seq("overlapping" -> overlap, "zero-variance" -> constant).map {
      case (name, rows) =>
        (name, rows, rows.map(_._1) ++ Seq.fill(200)(Array.fill(4)(2 * rng.nextGaussian())))
    }
    def relDiff(a: Double, b: Double) =
      if (a == b) 0.0 else math.abs(a - b) / math.max(math.abs(a), math.abs(b))
    for ((name, rows, cells) <- fromData ++ synthetic) {
      assert(rows.map(_._2).distinct.size == 2, s"$name needs both labels")
      val m = new LogisticRegression().setWeightCol("w").setMaxIter(50).fit(
        rows.map { case (f, l, w) => (Vectors.dense(f), l, w) }.toDF("features", "label", "w"))
      val (beta, b) = ActiveClean.fitLogistic(rows)
      val (got, expected) = (beta :+ b, m.coefficients.toArray :+ m.intercept)
      val rel = got.zip(expected).map { case (x, y) => relDiff(x, y) }.max
      assert(rel <= 1e-6, s"$name: ${got.mkString(", ")} vs MLlib ${expected.mkString(", ")}")
      val differ =
        cells.count(x => ActiveClean.flags(beta, b, x) != (m.predict(Vectors.dense(x)) == 1.0))
      assert(differ == 0, s"$name: $differ of ${cells.size} predictions differ from MLlib")
    }
  }

  test("ActiveClean with its shallow features stays low-precision") {
    val m = Metrics.evaluate(ActiveClean.detect(spark, hospital), hospital.mask)
    assert(m.precision < 0.6, s"ActiveClean precision suspiciously high: $m")
  }

  // -------------------------------------------------------------------- Raha
  test("Raha is deterministic") {
    val p1 = Raha.detect(spark, hospital).orderBy("tid", "attr").collect()
    val p2 = Raha.detect(spark, hospital).orderBy("tid", "attr").collect()
    assert(p1.nonEmpty)
    assert(p1.toSeq == p2.toSeq)
  }

  test("Raha with 2 labeled tuples has bounded recall (paper Fig. 6)") {
    val m = Metrics.evaluate(Raha.detect(spark, flights), flights.mask)
    assert(m.recall < 0.9, s"Raha recall too high for 2 labels: $m")
  }

  // -------------------------------------------------------------- Spark jobs
  test("every detect starts no Spark job on a loaded dataset") {
    // Each judges the tuples and reads the labels the dataset holds since
    // load, and returns a local DataFrame.
    val input = flights  // loaded outside the count
    val detectors = Seq[(String, EDataset => Any)](
      "dBoost" -> (DBoost.detect(spark, _)), "Nadeef" -> (Nadeef.detect(spark, _)),
      "Katara" -> (Katara.detect(spark, _)), "ActiveClean" -> (ActiveClean.detect(spark, _)),
      "Raha" -> (Raha.detect(spark, _)), "FM_ED" -> (FMED.detect(spark, _)))
    for ((name, detect) <- detectors) {
      val jobs = jobsStarted(detect(input))
      assert(jobs == 0, s"$name: $jobs Spark jobs")
    }
  }

  test("Metrics.evaluate of a driver-built prediction starts no Spark job") {
    // The flagged cells are collected from the local DataFrame, and the
    // loaded mask is scored from the truth recorded for it at load.
    val pred = DBoost.detect(spark, flights)
    val jobs = jobsStarted(Metrics.evaluate(pred, flights.mask))
    assert(jobs == 0, s"$jobs Spark jobs")
  }

  test("oracle: a loaded mask scores each baseline as its collected rows do") {
    for (ds <- Seq(hospital, flights); (name, detect) <- detectors) {
      // `select("*")` is a new mask object with the same rows and no record,
      // so `evaluate` collects it.
      val unrecorded = ds.mask.select("*")
      assert(Datasets.truth(ds.mask).isDefined && Datasets.truth(unrecorded).isEmpty)
      val pred = detect(ds)
      assert(Metrics.evaluate(pred, ds.mask) == Metrics.evaluate(pred, unrecorded),
             s"$name on ${ds.name}")
    }
  }

  // ------------------------------------------------------------ partitioning
  test("predictions do not depend on how the input tables are partitioned") {
    val ds = TestData.get(spark, "flights", 1.0)
    def preds(n: Int, detect: EDataset => DataFrame) =
      detect(ds.copy(tuples = CellTable.tuples(ds.dirty.repartition(n), ds.attrs),
                     errTypes = SimLLM.errorTypes(ds.mask.repartition(n))))
        .collect().map(r => (r.getAs[Long]("tid"), r.getAs[String]("attr"),
                             r.getAs[Boolean]("pred"))).toSet
    val detectors = Seq[(String, EDataset => DataFrame)](
      "dBoost" -> (DBoost.detect(spark, _)), "Nadeef" -> (Nadeef.detect(spark, _)),
      "Katara" -> (Katara.detect(spark, _)), "ActiveClean" -> (ActiveClean.detect(spark, _)),
      "Raha" -> (Raha.detect(spark, _)))
    for ((name, detect) <- detectors) {
      val (one, six) = (preds(1, detect), preds(6, detect))
      val differ = (one diff six).size
      assert(differ == 0 && one.size == six.size, s"$name differs on $differ cells")
    }
  }

  test("dBoost, Nadeef and ActiveClean are one pass over the tuples") {
    val detectors = Seq[(String, EDataset => DataFrame)](
      "dBoost" -> (DBoost.detect(spark, _)), "Nadeef" -> (Nadeef.detect(spark, _)),
      "ActiveClean" -> (ActiveClean.detect(spark, _)))
    for ((name, detect) <- detectors; ds <- Seq(hospital, flights)) {
      withClue(s"$name on ${ds.name}: ")(assertOnePass(detect(ds)))
    }
    // With no error among its labeled cells, ActiveClean fits no model.
    val allClean = hospital.copy(errTypes = Map.empty)
    withClue("ActiveClean without a model: ")(assertOnePass(ActiveClean.detect(spark, allClean)))
  }

  // ------------------------------------------------------------------ golden
  test("golden: every baseline's counts on hospital and flights") {
    val detectors = Map[String, EDataset => DataFrame](
      "dBoost" -> (DBoost.detect(spark, _)), "Nadeef" -> (Nadeef.detect(spark, _)),
      "Katara" -> (Katara.detect(spark, _)), "ActiveClean" -> (ActiveClean.detect(spark, _)),
      "Raha" -> (Raha.detect(spark, _)), "FM_ED" -> (FMED.detect(spark, _).pred))
    val golden = Seq(
      hospital -> Seq(
        "dBoost" -> PRF(93, 46, 114, 3747), "Nadeef" -> PRF(65, 675, 142, 3118),
        "Katara" -> PRF(5, 5, 202, 3788), "ActiveClean" -> PRF(150, 1505, 57, 2288),
        "Raha" -> PRF(153, 1106, 54, 2687), "FM_ED" -> PRF(110, 71, 97, 3722)),
      flights -> Seq(
        "dBoost" -> PRF(88, 5, 508, 1065), "Nadeef" -> PRF(307, 238, 289, 832),
        "Katara" -> PRF(0, 0, 596, 1070), "ActiveClean" -> PRF(434, 246, 162, 824),
        "Raha" -> PRF(379, 519, 217, 551), "FM_ED" -> PRF(310, 28, 286, 1042)))
    for ((ds, expected) <- golden; (name, prf) <- expected) {
      val pred = detectors(name)(ds)
      val got = Metrics.evaluate(pred, ds.mask)
      pred.unpersist()
      assert(got == prf, s"$name on ${ds.name}")
    }
  }

  // ------------------------------------------------------------------ caching
  test("dBoost, Nadeef, ActiveClean and Raha leave no RDD persisted") {
    hospital.dirty.count()
    val detectors = Seq[(String, EDataset => DataFrame)](
      "dBoost" -> (DBoost.detect(spark, _)), "Nadeef" -> (Nadeef.detect(spark, _)),
      "ActiveClean" -> (ActiveClean.detect(spark, _)), "Raha" -> (Raha.detect(spark, _)))
    for ((name, detect) <- detectors) {
      val before = spark.sparkContext.getPersistentRDDs.keySet.toSet
      detect(hospital).count()
      val after = spark.sparkContext.getPersistentRDDs.keySet.toSet
      assert(after == before, s"$name left RDDs ${after -- before} persisted")
    }
  }

  // ------------------------------------------------------------------- FM_ED
  test("FM_ED meters tokens") {
    val r = FMED.detect(spark, flights)
    assert(r.inputTokens > 0 && r.outputTokens > 0)
  }

  test("FM_ED catches missing values but misses rule violations") {
    val r = FMED.detect(spark, flights)
    val flagged = r.pred.where(col("pred")).select("tid", "attr").collect()
      .map(p => (p.getLong(0), p.getString(1))).toSet
    val recall = SimLLM.errorTypes(flights.mask).groupBy(_._2).map { case (t, cells) =>
      t -> cells.keys.count(flagged).toDouble / cells.size
    }
    assert(recall("MV") > 0.8, s"MV ${recall("MV")}")
    assert(recall("RV") < 0.4, s"RV ${recall("RV")}")
  }

  test("FM_ED meters one LLM call per tuple") {
    val r = FMED.detect(spark, flights)
    val errTypes = flights.mask.collect().map(m =>
      (m.getAs[Long]("tid"), m.getAs[String]("attr")) -> m.getAs[String]("err_type")).toMap
    val attrs = flights.attrs
    val once = TokenMeter.local()
    flights.dirty.collect().foreach { row =>
      val tid = row.getAs[Long]("tid")
      SimLLM.fmedTuple(ModelProfiles.fmEd, once, flights.name, tid, attrs,
        attrs.map(row.getAs[String](_)), attrs.map(a => errTypes((tid, a))))
    }
    assert((r.inputTokens, r.outputTokens) == (once.inputTokens, once.outputTokens))
  }

  test("FM_ED is one pass over the tuples") {
    val r = FMED.detect(spark, flights)
    assertOnePass(r.pred)
    r.pred.unpersist()
  }

  test("FM_ED input tokens scale with dataset size") {
    val smallDs = Datasets.load(spark, "flights", 0.05)
    val small = FMED.detect(spark, smallDs)
    val big   = FMED.detect(spark, flights) // 0.1
    smallDs.unpersist()
    assert(big.inputTokens > small.inputTokens)
  }
}
