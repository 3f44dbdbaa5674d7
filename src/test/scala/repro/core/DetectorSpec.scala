package repro.core

import org.apache.spark.ml.linalg.{Vector, Vectors}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestData}
import repro.data.EDataset
import repro.llm.SimLLM
import repro.util.{Rng, TokenMeter}

class DetectorSpec extends SparkSpec {

  private def featRow(i: Int, err: Boolean) = {
    val base = if (err) 0.9 else 0.1
    Vectors.dense(base + 0.05 * repro.util.Rng.unif("det", i, 0),
                  base + 0.05 * repro.util.Rng.unif("det", i, 1))
  }

  test("learns a separable concept and predicts all cells") {
    import spark.implicits._
    val train = (0 until 400).map { i =>
      val err = i % 4 == 0
      (featRow(i, err), if (err) 1.0 else 0.0)
    }.toDF("features", "label")
    val cells = (0 until 100).map { i =>
      val err = i % 4 == 0
      (i.toLong, "a", s"v$i", featRow(i + 1000, err))
    }.toDF("tid", "attr", "value", "features")
    val pred = Detector.trainPredict(spark, train, cells, 2, seed = 1L)
    assert(pred.count() == 100)
    val wrong = pred.withColumn("want", (col("tid") % 4 === 0))
      .where(col("pred") =!= col("want")).count()
    assert(wrong <= 5, s"$wrong misclassified")
  }

  test("single-class training predicts the constant class") {
    import spark.implicits._
    val train = (0 until 50).map(i => (featRow(i, err = false), 0.0))
      .toDF("features", "label")
    val cells = (0 until 10).map(i => (i.toLong, "a", "v", featRow(i, err = true)))
      .toDF("tid", "attr", "value", "features")
    val pred = Detector.trainPredict(spark, train, cells, 2, seed = 1L)
    assert(pred.where(col("pred")).count() == 0)
  }

  test("single-class all-error training predicts everything as error") {
    import spark.implicits._
    val train = (0 until 50).map(i => (featRow(i, err = true), 1.0))
      .toDF("features", "label")
    val cells = (0 until 10).map(i => (i.toLong, "a", "v", featRow(i, err = false)))
      .toDF("tid", "attr", "value", "features")
    val pred = Detector.trainPredict(spark, train, cells, 2, seed = 1L)
    assert(pred.where(col("pred")).count() == 10)
  }

  test("deterministic under a fixed seed") {
    import spark.implicits._
    val train = (0 until 200).map { i =>
      val err = i % 3 == 0
      (featRow(i, err), if (err) 1.0 else 0.0)
    }.toDF("features", "label")
    val cells = (0 until 50).map(i => (i.toLong, "a", "v", featRow(i + 500, i % 3 == 0)))
      .toDF("tid", "attr", "value", "features")
    val p1 = Detector.trainPredict(spark, train, cells, 2, 7L).orderBy("tid").collect()
    val p2 = Detector.trainPredict(spark, train, cells, 2, 7L).orderBy("tid").collect()
    assert(p1.toSeq == p2.toSeq)
  }

  /** Overlapping classes: the label is u0 + u1 > 1 with 15% of labels
    * flipped, so cells near the boundary are sensitive to the fitted weights.
    */
  private def noisy(n: Int, salt: String): Seq[(Array[Double], Double)] = (0 until n).map { i =>
    val x = Array(Rng.unif(salt, i, 0), Rng.unif(salt, i, 1))
    val err = (x(0) + x(1) > 1.0) != Rng.bool(0.15, salt, i, "flip")
    (x, if (err) 1.0 else 0.0)
  }

  private def trainDf(rows: Seq[(Array[Double], Double)]): DataFrame = {
    import spark.implicits._
    rows.map { case (x, l) => (Vectors.dense(x): Vector, l) }.toDF("features", "label")
  }

  private lazy val noisyCells: DataFrame = {
    import spark.implicits._
    noisy(300, "det-cells").zipWithIndex
      .map { case ((x, _), i) => (i.toLong, "a", "v", Vectors.dense(x): Vector) }
      .toDF("tid", "attr", "value", "features")
  }

  private def predictions(train: DataFrame, seed: Long): Seq[Boolean] =
    Detector.trainPredict(spark, train, noisyCells, 2, seed).orderBy("tid").collect()
      .map(_.getBoolean(2)).toSeq

  private def assertSame(a: Seq[Boolean], b: Seq[Boolean]): Unit = {
    val differ = a.zip(b).count { case (x, y) => x != y }
    assert(a.size == b.size && differ == 0, s"$differ of ${a.size} predictions differ")
  }

  test("predictions do not depend on how the training set is partitioned") {
    val train = trainDf(noisy(400, "det-train"))
    val one = predictions(train.repartition(1), 3L)
    val seven = predictions(train.orderBy(rand(11L)).repartition(7), 3L)
    assert(one.contains(true) && one.contains(false), "degenerate fit")
    assertSame(one, seven)
  }

  test("an empty training set predicts every cell clean") {
    val pred = Detector.trainPredict(spark, trainDf(Seq.empty), noisyCells, 2, 1L)
    assert(pred.count() == 300)
    assert(pred.where(col("pred")).count() == 0)
  }

  test("duplicating every training row leaves weights and predictions bit-identical") {
    val rows = noisy(200, "det-dup").map { case (x, l) => (x, l.toInt) }
    val mlp = Mlp(2, Detector.HiddenUnits)
    val w1 = Detector.weights(mlp, Examples(rows), 5L)
    val w2 = Detector.weights(mlp, Examples(rows ++ rows), 5L)
    assert(java.util.Arrays.equals(w1, w2))
    val train = trainDf(noisy(200, "det-dup"))
    assertSame(predictions(train, 5L), predictions(train.unionAll(train), 5L))
  }

  test("identical training rows merge into one weighted example in canonical order") {
    val a = Array(0.5, 0.25); val b = Array(0.5, -0.0); val c = Array(0.5, 0.0)
    val ex = Examples(Seq((a.clone, 1), (c, 0), (a.clone, 0), (b, 0), (a.clone, 1), (c.clone, 0)))
    assert(ex.y.toSeq == Seq(0, 0, 0, 1))
    assert(ex.x.map(_.toSeq).toSeq == Seq(b, c, a, a).map(_.toSeq))
    assert(ex.weight.toSeq == Seq(1.0, 2.0, 1.0, 2.0))
    assert(ex.totalWeight == 6.0)
  }

  test("analytic gradient matches central finite differences") {
    // (3, 4) is the small net; (6, 5) also covers the partial passes of Mlp.addProducts.
    for ((dim, hidden) <- Seq((3, 4), (6, 5))) {
      val mlp = Mlp(dim, hidden)
      val ex = Examples(
        Array.tabulate(10)(i => Array.tabulate(dim)(k => Rng.unif("gc", i, k) * 2 - 1)),
        Array.tabulate(10)(i => i % 2),
        Array.tabulate(10)(i => (1 + i % 3).toDouble))
      val w = mlp.init(9L)
      val (_, grad) = Detector.lossGrad(mlp, ex, w)
      val eps = 1e-5
      val fd = w.indices.map { i =>
        val up = w.clone; up(i) += eps
        val dn = w.clone; dn(i) -= eps
        (Detector.lossGrad(mlp, ex, up)._1 - Detector.lossGrad(mlp, ex, dn)._1) / (2 * eps)
      }
      val diff = math.sqrt(grad.indices.map(i => math.pow(grad(i) - fd(i), 2)).sum)
      val scale = math.max(math.sqrt(grad.map(g => g * g).sum), math.sqrt(fd.map(g => g * g).sum))
      assert(diff / scale < 1e-6, s"($dim, $hidden): relative error ${diff / scale}")
    }
  }

  /** out(i * nj + j) += Σ_l p(pOff + i * nl + l) * q(qOff + j * nl + l) for
    * i < ni, j < nj, each sum taken in l order onto the value already in
    * `out`. Computed in 4 × 4 tiles held in registers, which reuses every
    * load four times; the result is the same as one dot product at a time.
    * The kernel of `lossGradSum`, the oracle objective.
    */
  private def dots(p: Array[Double], pOff: Int, q: Array[Double], qOff: Int,
                   ni: Int, nj: Int, nl: Int, out: Array[Double]): Unit = {
    def one(i: Int, j: Int): Unit = {
      val pi = pOff + i * nl; val qj = qOff + j * nl
      var s = out(i * nj + j)
      var l = 0
      while (l < nl) { s += p(pi + l) * q(qj + l); l += 1 }
      out(i * nj + j) = s
    }
    var i = 0
    while (i + 4 <= ni) {
      val p0 = pOff + i * nl; val p1 = p0 + nl; val p2 = p1 + nl; val p3 = p2 + nl
      val o0 = i * nj; val o1 = o0 + nj; val o2 = o1 + nj; val o3 = o2 + nj
      var j = 0
      while (j + 4 <= nj) {
        val q0 = qOff + j * nl; val q1 = q0 + nl; val q2 = q1 + nl; val q3 = q2 + nl
        var s00 = out(o0 + j); var s01 = out(o0 + j + 1); var s02 = out(o0 + j + 2); var s03 = out(o0 + j + 3)
        var s10 = out(o1 + j); var s11 = out(o1 + j + 1); var s12 = out(o1 + j + 2); var s13 = out(o1 + j + 3)
        var s20 = out(o2 + j); var s21 = out(o2 + j + 1); var s22 = out(o2 + j + 2); var s23 = out(o2 + j + 3)
        var s30 = out(o3 + j); var s31 = out(o3 + j + 1); var s32 = out(o3 + j + 2); var s33 = out(o3 + j + 3)
        var l = 0
        while (l < nl) {
          val a0 = p(p0 + l); val a1 = p(p1 + l); val a2 = p(p2 + l); val a3 = p(p3 + l)
          val b0 = q(q0 + l); val b1 = q(q1 + l); val b2 = q(q2 + l); val b3 = q(q3 + l)
          s00 += a0 * b0; s01 += a0 * b1; s02 += a0 * b2; s03 += a0 * b3
          s10 += a1 * b0; s11 += a1 * b1; s12 += a1 * b2; s13 += a1 * b3
          s20 += a2 * b0; s21 += a2 * b1; s22 += a2 * b2; s23 += a2 * b3
          s30 += a3 * b0; s31 += a3 * b1; s32 += a3 * b2; s33 += a3 * b3
          l += 1
        }
        out(o0 + j) = s00; out(o0 + j + 1) = s01; out(o0 + j + 2) = s02; out(o0 + j + 3) = s03
        out(o1 + j) = s10; out(o1 + j + 1) = s11; out(o1 + j + 2) = s12; out(o1 + j + 3) = s13
        out(o2 + j) = s20; out(o2 + j + 1) = s21; out(o2 + j + 2) = s22; out(o2 + j + 3) = s23
        out(o3 + j) = s30; out(o3 + j + 1) = s31; out(o3 + j + 2) = s32; out(o3 + j + 3) = s33
        j += 4
      }
      while (j < nj) { one(i, j); one(i + 1, j); one(i + 2, j); one(i + 3, j); j += 1 }
      i += 4
    }
    while (i < ni) {
      var j = 0
      while (j < nj) { one(i, j); j += 1 }
      i += 1
    }
  }

  test("tiled dot products equal one dot product at a time, bit for bit") {
    val (ni, nj, nl) = (6, 7, 5)
    val p = Array.tabulate(ni * nl)(i => Rng.unif("dots-p", i) - 0.5)
    val q = Array.tabulate(2 + nj * nl)(i => Rng.unif("dots-q", i) - 0.5)
    val init = Array.tabulate(ni * nj)(i => Rng.unif("dots-o", i))
    val out = init.clone
    dots(p, 0, q, 2, ni, nj, nl, out)
    for (i <- 0 until ni; j <- 0 until nj) {
      var s = init(i * nj + j)
      for (l <- 0 until nl) s += p(i * nl + l) * q(2 + j * nl + l)
      assert(out(i * nj + j) == s, s"($i, $j)")
    }
  }

  /** Example-weighted cross-entropy summed over rows [lo, hi) of `ex`, with
    * its weighted gradient sum added into `g`: the objective computed one row
    * and one tiled dot product at a time.
    */
  private def lossGradSum(mlp: Mlp, w: Array[Double], ex: Examples, lo: Int, hi: Int,
                          g: Array[Double]): Double = {
    val (dim, hidden) = (mlp.dim, mlp.hidden)
    val oB1 = hidden * dim; val oW2 = oB1 + hidden; val oB2 = oW2 + 2 * hidden
    def output(h: Array[Double], z: Array[Double]): Unit =
      for (c <- 0 until 2) {
        var s = w(oB2 + c)
        for (j <- 0 until hidden) s += w(oW2 + c * hidden + j) * h(j)
        z(c) = s
      }
    val nb = hi - lo
    val xb = new Array[Double](nb * dim)  // the block's rows, nb × dim
    val xt = new Array[Double](dim * nb)  // and transposed
    for (r <- 0 until nb; k <- 0 until dim) {
      xb(r * dim + k) = ex.x(lo + r)(k); xt(k * nb + r) = ex.x(lo + r)(k)
    }
    // Hidden pre-activations of every row: b1 + W1 · x.
    val a = new Array[Double](nb * hidden)
    for (r <- 0 until nb) System.arraycopy(w, oB1, a, r * hidden, hidden)
    dots(xb, 0, w, 0, nb, hidden, dim, a)

    val h = new Array[Double](hidden)
    val z = new Array[Double](2)
    val d = new Array[Double](2)
    val dht = new Array[Double](hidden * nb)  // hidden deltas, hidden × nb
    var loss = 0.0
    for (r <- 0 until nb) {
      val wt = ex.weight(lo + r)
      val y = ex.y(lo + r)
      for (j <- 0 until hidden) h(j) = 1.0 / (1.0 + math.exp(-a(r * hidden + j)))
      output(h, z)
      val m = math.max(z(0), z(1))
      val lse = m + math.log(math.exp(z(0) - m) + math.exp(z(1) - m))
      loss += wt * (lse - z(y))
      for (c <- 0 until 2) {
        d(c) = wt * (math.exp(z(c) - lse) - (if (y == c) 1.0 else 0.0))
        g(oB2 + c) += d(c)
        for (j <- 0 until hidden) g(oW2 + c * hidden + j) += d(c) * h(j)
      }
      for (j <- 0 until hidden) {
        val dh = (w(oW2 + j) * d(0) + w(oW2 + hidden + j) * d(1)) * h(j) * (1.0 - h(j))
        g(oB1 + j) += dh
        dht(j * nb + r) = dh
      }
    }
    // W1's gradient: the sum over the block's rows of dh · x.
    dots(dht, 0, xt, 0, hidden, dim, nb, g)
    loss
  }

  /** The oracle of `Detector.lossGrad`: `lossGradSum` of each 64-row block,
    * one block after another, the blocks' sums added in block order.
    */
  private def sequentialLossGrad(mlp: Mlp, ex: Examples, w: Array[Double]): (Double, Array[Double]) = {
    var loss = 0.0
    val grad = new Array[Double](mlp.nWeights)
    for (lo <- 0 until ex.size by 64) {
      val g = new Array[Double](mlp.nWeights)
      loss += lossGradSum(mlp, w, ex, lo, math.min(ex.size, lo + 64), g)
      for (i <- grad.indices) grad(i) += g(i)
    }
    (loss / ex.totalWeight, grad.map(_ / ex.totalWeight))
  }

  /** The output logits of `x` one weight at a time: b1 + W1 · x in feature
    * order, the sigmoid, then W2 · h + b2.
    */
  private def scalarLogits(mlp: Mlp, w: Array[Double], x: Array[Double]): Seq[Double] = {
    val (dim, hidden) = (mlp.dim, mlp.hidden)
    val oB1 = hidden * dim; val oW2 = oB1 + hidden; val oB2 = oW2 + 2 * hidden
    val h = Array.tabulate(hidden) { j =>
      var s = w(oB1 + j)
      for (k <- 0 until dim) s += x(k) * w(j * dim + k)
      1.0 / (1.0 + math.exp(-s))
    }
    Seq.tabulate(2) { c =>
      var s = w(oB2 + c)
      for (j <- 0 until hidden) s += w(oW2 + c * hidden + j) * h(j)
      s
    }
  }

  test("the predictor equals the scalar forward pass, bit for bit") {
    // (6, 5) covers the partial pass of Mlp.addProducts, (87, 32) ZeroED's shape.
    for ((dim, hidden) <- Seq((87, 32), (6, 5))) {
      val mlp = Mlp(dim, hidden)
      val w = mlp.init(dim.toLong)
      val w1t = mlp.columns(w)
      for (i <- 0 until 50) {
        val x = Array.tabulate(dim)(k => Rng.unif("fwd", dim, i, k) * 4 - 2)
        val want = scalarLogits(mlp, w, x)
        assert(mlp.logits(w, w1t, x).toSeq == want, s"($dim, $hidden) row $i")
        assert(mlp.isError(w, w1t, x) == (want(1) > want(0)), s"($dim, $hidden) row $i")
      }
    }
    // Detector.fit's predictor, at the weights it fits.
    val dim = 87
    val rows = Seq.tabulate(300) { i =>
      val err = Rng.bool(0.3, "fwd-y", i)
      val shift = if (err) 0.5 else 0.0
      (Array.tabulate(dim)(k => Rng.unif("fwd-x", i, k) + (if (k % 3 == 0) shift else 0.0)), err)
    }
    val predict = Detector.fit(rows, dim, 7L)
    val mlp = Mlp(dim, Detector.HiddenUnits)
    val w = Detector.weights(mlp, Examples(rows.map { case (x, e) => (x, if (e) 1 else 0) }), 7L)
    val predictions = rows.map { case (x, _) =>
      val z = scalarLogits(mlp, w, x)
      (predict(x), z(1) > z(0))
    }
    assert(predictions.forall { case (got, want) => got == want })
    assert(predictions.map(_._2).distinct.size == 2, "the fitted predictor flags one class only")
  }

  test("the objective equals the sequential block-by-block oracle, bit for bit") {
    // A partial block (10, 65), a partial chunk (257, 1000) and vector tails
    // (dim 3, 6 and 87; 65 and 257 rows). 107 and 1003 rows end in a block
    // of 43, which is neither a multiple of 4 nor of 64 rows.
    for ((dim, hidden, rows) <- Seq((3, 4, 10), (6, 5, 64), (6, 5, 65), (6, 5, 107),
                                    (87, 32, 257), (87, 32, 1000), (87, 32, 1003))) {
      val mlp = Mlp(dim, hidden)
      val ex = Examples(
        Array.tabulate(rows)(i => Array.tabulate(dim)(k => Rng.unif("ox", dim, i, k) * 2 - 1)),
        Array.tabulate(rows)(i => if (Rng.bool(0.3, "oy", dim, i)) 1 else 0),
        Array.tabulate(rows)(i => (1 + i % 3).toDouble))
      val w = mlp.init(rows.toLong)
      val (loss, grad) = Detector.lossGrad(mlp, ex, w)
      val (wantLoss, wantGrad) = sequentialLossGrad(mlp, ex, w)
      val shape = s"($dim, $hidden, $rows)"
      assert(loss == wantLoss, shape)
      assert(grad.length == wantGrad.length, shape)
      val differ = grad.indices.filter(i => grad(i) != wantGrad(i))
      assert(differ.isEmpty, s"$shape: ${differ.size} gradient entries differ, first ${differ.headOption}")
    }
  }

  /** The (features, is-error) rows `ZeroED.run` fits its detector on, for
    * `ds` under the default config (its steps 1 to 3), and the feature width.
    */
  private def zeroedTrainingRows(ds: EDataset): (Seq[(Array[Double], Boolean)], Int) = {
    val cfg = ZeroEDConfig()
    val meter = TokenMeter.local()
    val tuples = ds.tuples
    val corr = Correlation.topK(tuples, ds.attrs, cfg.corrK)
    val model = FeatureModel.fit(ds, tuples, corr, cfg.profile, meter, FeatureOpts(corrK = cfg.corrK))
    val attrCells = model.featurize(tuples)
    val rowCtx = tuples.toMap
    val s = Sampling.clusterCount(tuples.length.toLong, cfg.labelRate)
    val clusters = ds.attrs.map { a =>
      a -> Sampling.cluster(cfg.clusterMethod, a, attrCells(a).feats, s, s"${ds.name}:${cfg.seed}")
    }.toMap
    val guidelines = ds.attrs.map { a =>
      val sampleVals = clusters(a).sampledIdx.take(20).map(attrCells(a).values).toSeq
      a -> SimLLM.makeGuideline(cfg.profile, meter, ds.name, a, model.dists(a), sampleVals)
    }.toMap
    val sampleLabels = Labeling.labelSamples(cfg.profile, meter, ds.name, attrCells, clusters,
      rowCtx, ds.errTypes, corr, guidelines, useCtx = true, batchSize = cfg.batchSize)
    val outcome = TrainData.construct(cfg.profile, meter, ds.name, model, attrCells, clusters,
      sampleLabels, rowCtx, corr, useVerify = true)
    val tids = attrCells(ds.attrs.head).tids
    val kept = outcome.labels.filter(_.keep)
      .map(c => (attrCells(c.attr).feats(java.util.Arrays.binarySearch(tids, c.tid)), c.label))
    (kept ++ outcome.augmented.map(a => (a.features, true)), model.totalDim)
  }

  test("the fit on ZeroED's hospitalSmall training rows equals the sequential oracle's, bit for bit") {
    val (rows, dim) = zeroedTrainingRows(TestData.hospitalSmall(spark))
    val ex = Examples(rows.map { case (x, err) => (x, if (err) 1 else 0) })
    assert(ex.size > 1000 && ex.y.contains(0) && ex.y.contains(1), s"${ex.size} rows")
    val mlp = Mlp(dim, Detector.HiddenUnits)
    val w = Detector.weights(mlp, ex, 42L)
    val want = Detector.minimize(mlp.init(42L), sequentialLossGrad(mlp, ex, _))
    assert(java.util.Arrays.equals(w, want))
  }

  test("trainPredict starts at most one Spark job before its result is used") {
    val sc = spark.sparkContext
    val train = trainDf(noisy(400, "det-jobs")).repartition(3).cache()
    train.count()
    val groups = new java.util.concurrent.ConcurrentLinkedQueue[String]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        groups.add(String.valueOf(e.properties.getProperty("spark.jobGroup.id")))
    }
    try listening(listener) {
      sc.setJobGroup("detector-fit", "trainPredict")
      Detector.trainPredict(spark, train, noisyCells, 2, 1L)
    } finally train.unpersist()
    val fitJobs = groups.toArray.count(_ == "detector-fit")
    assert(fitJobs <= 1, s"$fitJobs jobs")
  }
}
