package repro.core

import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart,
                                   SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.plans.logical.LocalRelation
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{BooleanType, LongType, StringType, StructField, StructType}
import repro.{Oracle, SparkSpec, TestData}
import repro.data.{CellTable, Datasets}

class MetricsSpec extends SparkSpec {

  test("PRF arithmetic") {
    val m = PRF(tp = 8, fp = 2, fn = 4, tn = 86)
    assert(math.abs(m.precision - 0.8) < 1e-9)
    assert(math.abs(m.recall - 8.0 / 12) < 1e-9)
    assert(math.abs(m.f1 - 2 * 0.8 * (8.0 / 12) / (0.8 + 8.0 / 12)) < 1e-9)
  }

  test("PRF degenerate cases are 0, not NaN") {
    assert(PRF(0, 0, 0, 10).precision == 0.0)
    assert(PRF(0, 0, 0, 10).recall == 0.0)
    assert(PRF(0, 0, 0, 10).f1 == 0.0)
    val cells = (0L until 1000L).map(t => (t, "a"))
    // No error cells (a near-zero error rate at small scale): flags are all false positives.
    val noErrors = Metrics.count(cells.map(c => c -> (c._1 % 100 == 0)), Set.empty)
    assert(noErrors == PRF(tp = 0, fp = 10, fn = 0, tn = 990))
    // No flagged cells: every error is missed.
    val noFlags = Metrics.count(cells.map(_ -> false), Set((1L, "a"), (2L, "a")))
    assert(noFlags == PRF(tp = 0, fp = 0, fn = 2, tn = 998))
    for (m <- Seq(noErrors, noFlags)) {
      assert(m.precision == 0.0 && m.recall == 0.0 && m.f1 == 0.0, m.toString)
    }
  }

  private def maskDf(rows: Seq[(Long, String, Boolean, String)]) = {
    import spark.implicits._
    rows.toDF("tid", "attr", "is_error", "err_type")
  }
  private def predDf(rows: Seq[(Long, String, Boolean)]) = {
    import spark.implicits._
    rows.toDF("tid", "attr", "pred")
  }

  test("evaluate counts the confusion matrix") {
    val mask = maskDf(Seq((0L, "a", true, "T"), (0L, "b", false, ""),
                          (1L, "a", false, ""), (1L, "b", true, "MV")))
    val pred = predDf(Seq((0L, "a", true), (0L, "b", true),
                          (1L, "a", false), (1L, "b", false)))
    val m = Metrics.evaluate(pred, mask)
    assert(m == PRF(tp = 1, fp = 1, fn = 1, tn = 1))
  }

  test("missing predictions default to clean") {
    val mask = maskDf(Seq((0L, "a", true, "T"), (1L, "a", false, "")))
    val pred = predDf(Seq.empty)
    val m = Metrics.evaluate(pred, mask)
    assert(m == PRF(tp = 0, fp = 0, fn = 1, tn = 1))
    // Flagged cells outside a restricted mask are not scored.
    val outside = predDf(Seq((0L, "a", true), (2L, "a", true), (0L, "b", true)))
    assert(Metrics.evaluate(outside, mask) == PRF(tp = 1, fp = 0, fn = 0, tn = 1))
    // A null prediction counts as clean.
    import spark.implicits._
    val nulls = Seq((0L, "a", Option.empty[Boolean]), (1L, "a", Option.empty[Boolean]))
      .toDF("tid", "attr", "pred")
    assert(Metrics.evaluate(nulls, mask) == PRF(tp = 0, fp = 0, fn = 1, tn = 1))
    // Columns are read by name: reordered, with an extra column.
    val reordered = Seq((true, "x", "a", 0L), (true, "y", "a", 2L), (false, "z", "a", 1L))
      .toDF("pred", "note", "attr", "tid")
    val maskReordered = mask.select("err_type", "is_error", "attr", "tid")
    assert(Metrics.evaluate(reordered, maskReordered) == PRF(tp = 1, fp = 0, fn = 0, tn = 1))
  }

  test("evaluate writes no shuffle data") {
    val rows = (0L until 200L).map(i => (i, "a", i % 7 == 0, if (i % 7 == 0) "T" else ""))
    val mask = maskDf(rows)
    val pred = predDf(rows.map { case (t, a, e, _) => (t, a, e) })
    val written = new AtomicLong
    val listener = new SparkListener {
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        Option(e.taskMetrics).foreach(m => written.addAndGet(m.shuffleWriteMetrics.bytesWritten))
    }
    assert(listening(listener)(Metrics.evaluate(pred, mask)).f1 == 1.0)
    assert(written.get == 0L, s"${written.get} shuffle bytes written")
  }

  test("perfect prediction yields F1 = 1") {
    val rows = (0L until 50L).map(i => (i, "a", i % 5 == 0, if (i % 5 == 0) "T" else ""))
    val mask = maskDf(rows)
    val pred = predDf(rows.map { case (t, a, e, _) => (t, a, e) })
    assert(Metrics.evaluate(pred, mask).f1 == 1.0)
  }

  test("oracle: confusion counts match DuckDB") {
    val rows = (0L until 200L).map { i =>
      (i, "a", repro.util.Rng.bool(0.2, "me", i), "")
    }
    val preds = (0L until 200L).map { i => (i, "a", repro.util.Rng.bool(0.3, "mp", i)) }
    val mask = maskDf(rows.map { case (t, a, e, _) => (t, a, e, if (e) "T" else "") })
    val pred = predDf(preds)
    val m = Metrics.evaluate(pred, mask)
    val errors = rows.collect { case (t, a, true, _) => (t, a) }.toSet
    val driver = Metrics.count(preds.map { case (t, a, p) => (t, a) -> p }, errors)
    assert(driver == m, s"driver count $driver vs evaluate $m")
    import spark.implicits._
    val sparkCounts = Seq((m.tp, m.fp, m.fn, m.tn)).toDF("tp", "fp", "fn", "tn")
    Oracle.assertEquivalent(sparkCounts,
      """SELECT
        |  sum(CASE WHEN m.is_error='true'  AND p.pred='true'  THEN 1 ELSE 0 END) AS tp,
        |  sum(CASE WHEN m.is_error='false' AND p.pred='true'  THEN 1 ELSE 0 END) AS fp,
        |  sum(CASE WHEN m.is_error='true'  AND p.pred='false' THEN 1 ELSE 0 END) AS fn,
        |  sum(CASE WHEN m.is_error='false' AND p.pred='false' THEN 1 ELSE 0 END) AS tn
        |FROM m JOIN p ON m.tid = p.tid AND m.attr = p.attr""".stripMargin,
      "m" -> mask, "p" -> pred)
  }

  /** A prediction on hospital at 0.2 that hits, misses and wrongly flags:
    * every other error cell, and every cell of each fifth tuple.
    */
  private lazy val hospital = TestData.hospitalSmall(spark)
  private lazy val hospitalFlags: Set[(Long, String)] = {
    val errors = hospital.errTypes.keys.toSeq.sorted.zipWithIndex
      .collect { case (c, i) if i % 2 == 0 => c }
    val fifths = hospital.tuples.map(_._1).filter(_ % 5 == 0)
      .flatMap(t => hospital.attrs.map(t -> _))
    (errors ++ fifths).toSet
  }
  private lazy val hospitalPred = CellTable.flagged(spark, hospitalFlags.toSeq.sorted)

  test("a mask derived from a loaded mask is scored from its own rows") {
    val base = Metrics.evaluate(hospitalPred, hospital.mask)
    assert(base.tp > 0 && base.fp > 0 && base.fn > 0 && base.tn > 0, base.toString)
    val a = hospital.attrs.head
    val oneAttr = hospital.mask.where(col("attr") === a)
    val repartitioned = hospital.mask.repartition(3)
    for (m <- Seq(oneAttr, repartitioned)) assert(Datasets.truth(m).isEmpty)
    val cells = hospital.tuples.map(t => (t._1, a))
    val expected = Metrics.count(cells.map(c => c -> hospitalFlags(c)),
                                 hospital.errTypes.keySet.filter(_._2 == a))
    assert(Metrics.evaluate(hospitalPred, oneAttr) == expected)
    assert(expected.tp + expected.fp + expected.fn + expected.tn == hospital.tuples.length)
    assert(Metrics.evaluate(hospitalPred, repartitioned) == base)
  }

  test("a loaded mask is scored by what it holds, not by its dataset's fields") {
    val noTruth = hospital.copy(errTypes = Map.empty)
    assert(Metrics.evaluate(hospitalPred, noTruth.mask) ==
           Metrics.evaluate(hospitalPred, hospital.mask))
  }

  /** The cells `pred` flags as `collect()` returns them: the oracle of the
    * local read.
    */
  private def collected(pred: DataFrame): Seq[(Long, String)] =
    pred.collect().toSeq.collect { case r if r.getAs[Any]("pred") == true =>
      (r.getAs[Long]("tid"), r.getAs[String]("attr"))
    }

  private def isLocal(df: DataFrame) = df.queryExecution.analyzed.isInstanceOf[LocalRelation]

  test("a local prediction table is read from its plan as collect() returns it") {
    val cells = Seq((3L, "b"), (1L, "a"), (3L, "b"), (2L, "c"))  // one duplicate
    for (cs <- Seq(Seq.empty, cells, hospitalFlags.toSeq.sorted)) {
      val pred = CellTable.flagged(spark, cs)
      assert(isLocal(pred))
      assert(Metrics.flaggedCells(pred) == collected(pred))
      assert(Metrics.flaggedCells(pred) == cs)
    }
    // Driver rows with a null pred, a null attr, a false pred and an extra
    // column, in another column order.
    val schema = StructType(Seq(
      StructField("pred", BooleanType), StructField("note", StringType),
      StructField("attr", StringType), StructField("tid", LongType, nullable = false)))
    val rows = Seq(Row(true, "x", "a", 0L), Row(null, "y", "a", 1L), Row(true, "z", null, 2L),
                   Row(false, null, "b", 3L), Row(true, "x", "a", 0L))
    val driverRows = spark.createDataFrame(java.util.Arrays.asList(rows: _*), schema)
    assert(isLocal(driverRows))
    assert(Metrics.flaggedCells(driverRows) == collected(driverRows))
    assert(Metrics.flaggedCells(driverRows) == Seq((0L, "a"), (2L, null), (0L, "a")))
    // A `toDF` table is a projection of its rows, so it is collected.
    import spark.implicits._
    val projected = Seq((0L, "a", true), (1L, "a", false), (2L, null, true))
      .toDF("tid", "attr", "pred")
    assert(!isLocal(projected))
    assert(Metrics.flaggedCells(projected) == Seq((0L, "a"), (2L, null)))
  }

  test("a loaded mask is counted from the flagged cells alone as over every cell") {
    val truth = Datasets.truth(hospital.mask).get
    val (tids, attrs) = (hospital.tuples.map(_._1), hospital.attrs)
    // Off the table: an unknown tid, an unknown attribute and a null one;
    // and each tenth flagged cell twice.
    val flags = hospitalFlags.toSeq.sorted
    val flagged = flags ++ flags.indices.collect { case i if i % 10 == 0 => flags(i) } ++
      Seq((tids.last + 1, attrs.head), (tids.head, "no-such-attr"), (tids.head, null))
    val set = flagged.toSet
    val everyCell = tids.toSeq.flatMap(t => attrs.map(a => (t, a) -> set((t, a))))
    val expected = Metrics.count(everyCell, hospital.errTypes.keySet)
    assert(expected.tp > 0 && expected.fp > 0 && expected.fn > 0 && expected.tn > 0)
    assert(Metrics.countFlagged(flagged, truth) == expected)
    assert(Metrics.evaluate(CellTable.flagged(spark, flagged), hospital.mask) == expected)
  }

  test("scoring a local prediction table against a loaded mask runs no query") {
    val (executions, jobs) = (new AtomicInteger, new AtomicInteger)
    val listener = new SparkListener {
      override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
        case _: SparkListenerSQLExecutionStart => executions.incrementAndGet()
        case _                                 =>
      }
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (!Option(e.properties).exists(_.getProperty("spark.jobGroup.id") == "drain"))
          jobs.incrementAndGet()
    }
    val (mask, pred) = (hospital.mask, hospitalPred)  // built outside the count
    assert(Datasets.truth(mask).isDefined)
    def run(pred: DataFrame): (Int, Int) = {
      executions.set(0); jobs.set(0)
      listening(listener)(Metrics.evaluate(pred, mask))
      (executions.get, jobs.get)
    }
    assert(run(pred) == (0, 0))
    import spark.implicits._
    val projected = hospitalFlags.toSeq.map { case (t, a) => (t, a, true) }
      .toDF("tid", "attr", "pred")
    assert(run(projected)._1 == 1)
  }
}
