package repro.baselines

import breeze.linalg.{DenseVector => BDV}
import breeze.optimize.{CachedDiffFunction, DiffFunction, LBFGS}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.CellStats
import repro.data.{CellTable, EDataset}

/** ActiveClean [48]: detection through a downstream convex model over simple
  * featurization, trained from a minimal labeled sample (2 tuples, the
  * paper's minimal-human-effort setting). Its shallow features cannot
  * separate errors well — on several datasets it degenerates to flagging
  * almost everything (paper: recall ≈ 1, precision ≈ error rate).
  */
object ActiveClean {

  val LabeledTuples = 2

  def detect(spark: SparkSession, ds: EDataset): DataFrame = {
    val stats = ds.stats
    val features = featurizer(stats)
    val labeled = trainingRows(ds, stats)

    if (labeled.map(_._2).distinct.length < 2) {
      // Degenerate labeled set: fall back to flagging below-average
      // frequency cells (ActiveClean's "everything suspicious" regime).
      val n = stats.n.toDouble
      val vc = stats.values.values
      val meanVf = vc.map(_.values.sum).sum / math.max(1.0, vc.map(_.size).sum.toDouble) / n
      CellTable.predictions(spark, ds.tuples)((_, row) =>
        row.collect { case (a, v) if stats.valueCount(a, v) / n < meanVf => a })
    } else {
      val (beta, b) = fitLogistic(labeled)
      CellTable.predictions(spark, ds.tuples)((_, row) =>
        row.collect { case (a, v) if flags(beta, b, features(a, v)) => a })
    }
  }

  /** A cell's four features: its value's and its L2 pattern's frequency,
    * its length (capped at 20) and whether it is empty.
    */
  private[baselines] def featurizer(stats: CellStats): (String, String) => Array[Double] = {
    val n = stats.n.toDouble
    (attr, v) => Array(
      stats.valueCount(attr, v) / n,
      stats.patCount(attr, 2, v) / n,
      math.min(1.0, v.length / 20.0),
      if (v.isEmpty) 1.0 else 0.0)
  }

  /** The (features, label, weight) rows of the cells of the two manually
    * labeled tuples (ground truth on those cells only), in tid, then
    * attribute order; errors are weighted up to the clean cells' total.
    */
  private[baselines] def trainingRows(ds: EDataset,
                                      stats: CellStats): Seq[(Array[Double], Double, Double)] = {
    val features = featurizer(stats)
    val labeled = CellTable.labeled(ds, "acLab", LabeledTuples).flatMap {
      case (_, row, isError) =>
        ds.attrs.map(a => (features(a, row(a)), if (isError(a)) 1.0 else 0.0))
    }
    val nErr = labeled.count(_._2 == 1.0).toDouble
    val w = (labeled.length - nErr) / math.max(1.0, nErr)
    labeled.map { case (f, l) => (f, l, if (l == 1.0) w else 1.0) }
  }

  /** MLlib's binomial prediction: σ(x·β + b) above 0.5. */
  private[baselines] def flags(beta: Array[Double], b: Double, x: Array[Double]): Boolean =
    1.0 / (1.0 + math.exp(-(dot(x, beta) + b))) > 0.5

  private def dot(x: Array[Double], y: Array[Double]): Double = {
    var s = 0.0
    var j = 0
    while (j < x.length) { s += x(j) * y(j); j += 1 }
    s
  }

  /** The (coefficients, intercept) MLlib's binomial `LogisticRegression`
    * fits to weighted rows with both labels at ActiveClean's settings (50
    * iterations, no regularization, standardization, intercept), along its
    * own path (`LogisticRegression.train`, `BinaryLogisticBlockAggregator`):
    * features scaled by their inverse weighted unbiased std (0 where the std
    * is 0) and centred through the intercept, start at β = 0 and
    * b = log(W₁/W₀), the weighted mean log-loss minimized by breeze L-BFGS
    * (memory 10, tolerance 1e-6), then β mapped back to the raw features.
    */
  private[baselines] def fitLogistic(
      rows: Seq[(Array[Double], Double, Double)]): (Array[Double], Double) = {
    val d = rows.head._1.length
    val weight = rows.map(_._3).sum
    val mean = Array.tabulate(d)(j => rows.map(r => r._3 * r._1(j)).sum / weight)
    val denom = weight - rows.map(r => r._3 * r._3).sum / weight
    val invStd = Array.tabulate(d) { j =>
      val variance = if (denom > 0) rows.map(r => r._3 * math.pow(r._1(j) - mean(j), 2)).sum / denom
                     else 0.0
      if (variance > 0) 1.0 / math.sqrt(variance) else 0.0
    }
    val scaledMean = Array.tabulate(d)(j => mean(j) * invStd(j))
    val xs = rows.map(r => Array.tabulate(d)(j => r._1(j) * invStd(j)))

    // The weighted mean loss and gradient at x = (β, b) on centred features.
    def lossGrad(x: Array[Double]): (Double, BDV[Double]) = {
      val beta = x.take(d)
      val offset = x(d) - dot(beta, scaledMean)
      val grad = new Array[Double](d + 1)
      var loss = 0.0
      for (((_, label, w), xi) <- rows.zip(xs)) {
        val margin = offset + dot(xi, beta)
        loss += w * (if (label > 0) log1pExp(-margin) else log1pExp(-margin) + margin)
        val mult = w * (1.0 / (1.0 + math.exp(-margin)) - label)
        for (j <- 0 until d) grad(j) += mult * xi(j)
        grad(d) += mult
      }
      for (j <- 0 until d) grad(j) -= grad(d) * scaledMean(j)
      (loss / weight, BDV(grad.map(_ / weight)))
    }
    val f = new DiffFunction[BDV[Double]] {
      def calculate(x: BDV[Double]): (Double, BDV[Double]) = lossGrad(x.toArray)
    }
    val init = BDV.zeros[Double](d + 1)
    init(d) = math.log(rows.filter(_._2 > 0).map(_._3).sum / rows.filter(_._2 == 0).map(_._3).sum)
    val x = new LBFGS[BDV[Double]](50, 10, 1e-6).minimize(new CachedDiffFunction(f), init).toArray
    val beta = x.take(d)
    (Array.tabulate(d)(j => beta(j) * invStd(j)), x(d) - dot(beta, scaledMean))
  }

  /** log(1 + eˣ), stable for large |x| (MLlib's `Utils.log1pExp`). */
  private def log1pExp(x: Double): Double =
    if (x > 0) x + math.log1p(math.exp(-x)) else math.log1p(math.exp(x))
}
