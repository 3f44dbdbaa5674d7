package repro.core

import breeze.linalg.{DenseVector => BDV}
import breeze.optimize.{CachedDiffFunction, DiffFunction, LBFGS}
import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.util.{Par, Rng}

/** A [dim, hidden, 2] network: a sigmoid hidden layer and a softmax output
  * trained with cross-entropy. Its weights are one flat array: W1
  * (hidden × dim, row-major), b1, W2 (2 × hidden, row-major), b2.
  */
private[core] final case class Mlp(dim: Int, hidden: Int) {
  private val oB1 = hidden * dim
  private val oW2 = oB1 + hidden
  private val oB2 = oW2 + 2 * hidden
  val nWeights: Int = oB2 + 2

  /** A zero gradient in `blockSums`' layout: W1's rows, then b1, W2 and b2. */
  def gradRows(): Array[Array[Double]] =
    Array.tabulate(hidden + 1)(j => new Array[Double](if (j < hidden) dim else nWeights - oB1))

  /** U(-2.4, 2.4) / sqrt(fan-in) for every weight and bias (MLlib's range). */
  def init(seed: Long): Array[Double] = Array.tabulate(nWeights) { i =>
    val fanIn = if (i < oW2) dim else hidden
    (Rng.unif("mlp-init", seed, i) * 4.8 - 2.4) / math.sqrt(fanIn.toDouble)
  }

  /** Output logits of the hidden activations `h` into `z`. */
  private def output(w: Array[Double], h: Array[Double], z: Array[Double]): Unit = {
    var c = 0
    while (c < 2) {
      var s = w(oB2 + c)
      val row = oW2 + c * hidden
      var j = 0
      while (j < hidden) { s += w(row + j) * h(j); j += 1 }
      z(c) = s
      c += 1
    }
  }

  /** W1's columns: column k holds every hidden unit's weight on feature k. */
  def columns(w: Array[Double]): Array[Array[Double]] =
    Array.tabulate(dim, hidden)((k, j) => w(j * dim + k))

  /** The output logits of `x`, given `w` and its W1 columns `w1t`. Each
    * pre-activation is b1 plus its W1 · x terms in feature order, summed by
    * `Mlp.addProducts` over W1's columns.
    */
  def logits(w: Array[Double], w1t: Array[Array[Double]], x: Array[Double]): Array[Double] = {
    val h = java.util.Arrays.copyOfRange(w, oB1, oB1 + hidden)
    Mlp.addProducts(x, w1t, h)
    var j = 0
    while (j < hidden) { h(j) = 1.0 / (1.0 + math.exp(-h(j))); j += 1 }
    val z = new Array[Double](2)
    output(w, h, z)
    z
  }

  /** The predicted class of `x`: error when the error logit is strictly larger. */
  def isError(w: Array[Double], w1t: Array[Array[Double]], x: Array[Double]): Boolean = {
    val z = logits(w, w1t, x)
    z(1) > z(0)
  }

  /** W1's rows, then W2's rows, of `w`: the layout `blockSums` reads. */
  def rows(w: Array[Double]): Array[Array[Double]] =
    Array.tabulate(hidden + 2) { j =>
      if (j < hidden) java.util.Arrays.copyOfRange(w, j * dim, (j + 1) * dim)
      else java.util.Arrays.copyOfRange(w, oW2 + (j - hidden) * hidden, oW2 + (j - hidden + 1) * hidden)
    }

  /** The sums over rows [lo, hi) of `ex`, one pair per `block` rows, in
    * block order: the example-weighted cross-entropy and its gradient, held
    * as W1's rows followed by the rest of the weights (b1, W2, b2). `wRows`
    * is `rows(w)`. Every term is the row weight times a weight-free
    * quantity, so scaling all weights by two scales both sums exactly.
    */
  def blockSums(w: Array[Double], wRows: Array[Array[Double]], ex: Examples, lo: Int, hi: Int,
                block: Int): Seq[(Double, Array[Array[Double]])] = {
    var arrays: BlockArrays = null
    (lo until hi by block).map { b =>
      val nb = math.min(hi, b + block) - b
      if (arrays == null || arrays.nb != nb) arrays = new BlockArrays(nb)
      blockSum(w, wRows, ex, b, arrays)
    }
  }

  /** The per-row arrays of a block of `nb` rows, which `blockSums` reuses
    * from block to block: every entry is written before it is read.
    */
  private final class BlockArrays(val nb: Int) {
    val xc = Array.ofDim[Double](dim, nb)      // the block's features, feature × row
    val h = Array.ofDim[Double](hidden, nb)    // hidden activations, unit × row
    val z = Array.ofDim[Double](2, nb)         // output logits, class × row
    val d = Array.ofDim[Double](2, nb)         // output deltas, class × row
    val dh = Array.ofDim[Double](hidden, nb)   // hidden deltas, unit × row
  }

  /** `blockSums`' sums over the `arrays.nb` rows of `ex` from `lo`,
    * computed across the block's rows: the rows are copied once into feature columns, and every
    * per-row quantity is held unit × row. Each pre-activation is b1 plus its
    * W1 · x terms in feature order, each logit b2 plus its W2 · h terms in
    * unit order, and each gradient entry the sum of its rows' terms in row
    * order: the same sums, rounded the same way, as one row and one dot
    * product at a time.
    */
  private def blockSum(w: Array[Double], wRows: Array[Array[Double]], ex: Examples,
                       lo: Int, arrays: BlockArrays): (Double, Array[Array[Double]]) = {
    val nb = arrays.nb
    val g = gradRows()
    val rest = g(hidden)
    val xc = arrays.xc
    var r = 0
    while (r < nb) {
      val x = ex.x(lo + r)
      var k = 0
      while (k < dim) { xc(k)(r) = x(k); k += 1 }
      r += 1
    }
    val h = arrays.h
    var j = 0
    while (j < hidden) {
      val hj = h(j)
      java.util.Arrays.fill(hj, w(oB1 + j))
      Mlp.addProducts(wRows(j), xc, hj)
      r = 0
      while (r < nb) { hj(r) = 1.0 / (1.0 + math.exp(-hj(r))); r += 1 }
      j += 1
    }
    val z = arrays.z
    var c = 0
    while (c < 2) {
      java.util.Arrays.fill(z(c), w(oB2 + c))
      Mlp.addProducts(wRows(hidden + c), h, z(c))
      c += 1
    }
    val d = arrays.d
    var loss = 0.0
    r = 0
    while (r < nb) {
      val wt = ex.weight(lo + r)
      val y = ex.y(lo + r)
      val m = math.max(z(0)(r), z(1)(r))
      val lse = m + math.log(math.exp(z(0)(r) - m) + math.exp(z(1)(r) - m))
      loss += wt * (lse - z(y)(r))
      c = 0
      while (c < 2) {
        val dc = wt * (math.exp(z(c)(r) - lse) - (if (y == c) 1.0 else 0.0))
        d(c)(r) = dc
        rest(oB2 - oB1 + c) += dc
        val row = oW2 - oB1 + c * hidden
        j = 0
        while (j < hidden) { rest(row + j) += dc * h(j)(r); j += 1 }
        c += 1
      }
      r += 1
    }
    val dh = arrays.dh
    j = 0
    while (j < hidden) {
      val v0 = w(oW2 + j); val v1 = w(oW2 + hidden + j)
      val hj = h(j); val dhj = dh(j); val d0 = d(0); val d1 = d(1)
      r = 0
      while (r < nb) { dhj(r) = (v0 * d0(r) + v1 * d1(r)) * hj(r) * (1.0 - hj(r)); r += 1 }
      var s = rest(j)
      r = 0
      while (r < nb) { s += dhj(r); r += 1 }
      rest(j) = s
      j += 1
    }
    // W1's gradient: the sum over the block's rows of dh · x.
    Mlp.addOuterProducts(dh, ex.x, lo, g)
    (loss, g)
  }
}

private[core] object Mlp {

  /** y(i) += s(0) * xs(0)(i) + s(1) * xs(1)(i) + ... for every index i of
    * `y`, the terms added one at a time in order. Every loop reads its arrays
    * from index 0 by the loop variable, so C2 compiles it to vector
    * multiplies and adds; it never fuses them, so every entry is rounded as
    * in scalar code. Four terms share a pass over `y`.
    */
  def addProducts(s: Array[Double], xs: Array[Array[Double]], y: Array[Double]): Unit = {
    val n = y.length
    var t = 0
    while (t + 4 <= s.length) {
      val s0 = s(t); val s1 = s(t + 1); val s2 = s(t + 2); val s3 = s(t + 3)
      val x0 = xs(t); val x1 = xs(t + 1); val x2 = xs(t + 2); val x3 = xs(t + 3)
      var i = 0
      while (i < n) { y(i) = (((y(i) + s0 * x0(i)) + s1 * x1(i)) + s2 * x2(i)) + s3 * x3(i); i += 1 }
      t += 4
    }
    while (t < s.length) {
      val st = s(t); val xt = xs(t)
      var i = 0
      while (i < n) { y(i) += st * xt(i); i += 1 }
      t += 1
    }
  }

  /** ys(j)(i) += s(j)(0) * xs(lo)(i) + s(j)(1) * xs(lo + 1)(i) + ... for
    * every row j of `s` and every index i of `ys(j)`: `addProducts` of each
    * row j, with its loops interchanged. Four rows of `xs` are read once and
    * serve every j in turn, and every entry adds its terms one at a time in
    * order, as `addProducts` adds them.
    */
  def addOuterProducts(s: Array[Array[Double]], xs: Array[Array[Double]], lo: Int,
                       ys: Array[Array[Double]]): Unit = {
    val nt = if (s.isEmpty) 0 else s(0).length
    var t = 0
    while (t + 4 <= nt) {
      val x0 = xs(lo + t); val x1 = xs(lo + t + 1); val x2 = xs(lo + t + 2); val x3 = xs(lo + t + 3)
      var j = 0
      while (j < s.length) {
        val sj = s(j); val y = ys(j)
        val s0 = sj(t); val s1 = sj(t + 1); val s2 = sj(t + 2); val s3 = sj(t + 3)
        var i = 0
        while (i < y.length) { y(i) = (((y(i) + s0 * x0(i)) + s1 * x1(i)) + s2 * x2(i)) + s3 * x3(i); i += 1 }
        j += 1
      }
      t += 4
    }
    while (t < nt) {
      val xt = xs(lo + t)
      var j = 0
      while (j < s.length) {
        val st = s(j)(t); val y = ys(j)
        var i = 0
        while (i < y.length) { y(i) += st * xt(i); i += 1 }
        j += 1
      }
      t += 1
    }
  }
}

/** Training rows in canonical order (label, then features by
  * `java.lang.Double.compare`), identical rows merged into one with an
  * integer weight. y is the class index (0 clean, 1 error).
  */
private[core] final case class Examples(x: Array[Array[Double]], y: Array[Int],
                                        weight: Array[Double]) {
  def size: Int = x.length
  val totalWeight: Double = weight.sum
}

private[core] object Examples {

  private val canonical: Ordering[(Array[Double], Int)] = (a, b) => {
    var c = Integer.compare(a._2, b._2)
    var k = 0
    while (c == 0 && k < a._1.length) { c = java.lang.Double.compare(a._1(k), b._1(k)); k += 1 }
    c
  }

  def apply(rows: Seq[(Array[Double], Int)]): Examples = {
    // Stable, on the common fork-join pool: the order of a sequential stable sort.
    val sorted = rows.toArray
    java.util.Arrays.parallelSort(sorted, canonical)
    val x = Array.newBuilder[Array[Double]]
    val y = Array.newBuilder[Int]
    val weight = Array.newBuilder[Double]
    var i = 0
    while (i < sorted.length) {
      var j = i + 1
      while (j < sorted.length && canonical.compare(sorted(i), sorted(j)) == 0) j += 1
      x += sorted(i)._1; y += sorted(i)._2; weight += (j - i).toDouble
      i = j
    }
    Examples(x.result(), y.result(), weight.result())
  }
}

/** The final ED classifier (Section III-D): a [dim, 32, 2] MLP trained with
  * cross-entropy over the unified cell features, predicting clean/dirty for
  * every cell of the dataset. `fit` trains on rows held by the driver (tens
  * of thousands) with L-BFGS and returns the predictor; `trainPredict` is its
  * DataFrame adapter: one collect, then a per-cell UDF over the predictor.
  */
object Detector {

  val HiddenUnits = 32
  val MaxIter = 60
  // MLlib's MultilayerPerceptronClassifier L-BFGS settings.
  private val Memory = 10
  private val Tolerance = 1e-6
  /** Rows per partial sum. Fixed, so the objective's rounding does not
    * depend on the thread count.
    */
  private val BlockSize = 64
  /** Rows per task: whole blocks, enough work to outweigh scheduling it. */
  private val ChunkSize = 4 * BlockSize

  /** Fit on (features, is-error) rows and return the predictor. The fit
    * depends only on the multiset of rows; with fewer than two classes, which
    * an MLP cannot fit, it predicts the one class (clean when there are none).
    */
  def fit(rows: Seq[(Array[Double], Boolean)], dim: Int, seed: Long): Array[Double] => Boolean = {
    val classes = rows.map(_._2).distinct
    if (classes.size < 2) { val only = classes.contains(true); return _ => only }
    val mlp = Mlp(dim, HiddenUnits)
    val w = weights(mlp, Examples(rows.map { case (x, err) => (x, if (err) 1 else 0) }), seed)
    val w1t = mlp.columns(w)
    x => mlp.isError(w, w1t, x)
  }

  /** Train on (features, label) and predict every cell of `cellsF`
    * (tid, attr, value, features). Returns (tid, attr, pred).
    */
  def trainPredict(spark: SparkSession, train: DataFrame, cellsF: DataFrame,
                   dim: Int, seed: Long): DataFrame = {
    val rows = train.select("features", "label").collect()
      .map(r => (r.getAs[Vector](0).toArray, r.getDouble(1) == 1.0))
    val predict = fit(rows.toSeq, dim, seed)
    val isError = udf((v: Vector) => predict(v.toArray))
    cellsF.select(col("tid"), col("attr"), isError(col("features")).as("pred"))
  }

  /** The weighted-mean cross-entropy of `ex` at `w` and its gradient. Each
    * 64-row block's sums are computed on its own, `ChunkSize` rows to a task
    * (in parallel), and added in block order, so the result is the same on
    * any thread count.
    */
  private[core] def lossGrad(mlp: Mlp, ex: Examples, w: Array[Double]): (Double, Array[Double]) = {
    val wRows = mlp.rows(w)
    val chunks = (0 until ex.size by ChunkSize).map(lo => (lo, math.min(ex.size, lo + ChunkSize)))
    val blocks = Par.map(chunks) { case (lo, hi) => mlp.blockSums(w, wRows, ex, lo, hi, BlockSize) }
      .flatten.toArray
    var loss = 0.0
    blocks.foreach { case (l, _) => loss += l }
    // Each gradient row adds the blocks' rows in block order; rows in parallel.
    val sum = mlp.gradRows()
    Par.map(sum.indices) { j =>
      val sj = sum(j)
      blocks.foreach { case (_, g) =>
        val gj = g(j)
        var k = 0
        while (k < sj.length) { sj(k) += gj(k); k += 1 }
      }
    }
    (loss / ex.totalWeight, sum.flatten.map(_ / ex.totalWeight))
  }

  /** Minimize `lossGrad` with L-BFGS from the `Rng` initialization. */
  private[core] def weights(mlp: Mlp, ex: Examples, seed: Long): Array[Double] =
    minimize(mlp.init(seed), w => lossGrad(mlp, ex, w))

  /** Minimize `objective` (the loss and its gradient) with L-BFGS from `init`. */
  private[core] def minimize(init: Array[Double],
                             objective: Array[Double] => (Double, Array[Double])): Array[Double] = {
    val f = new DiffFunction[BDV[Double]] {
      def calculate(x: BDV[Double]): (Double, BDV[Double]) = {
        val (loss, grad) = objective(x.toArray)
        (loss, BDV(grad))
      }
    }
    val lbfgs = new LBFGS[BDV[Double]](MaxIter, Memory, Tolerance)
    lbfgs.minimize(new CachedDiffFunction(f), BDV(init)).toArray
  }
}
