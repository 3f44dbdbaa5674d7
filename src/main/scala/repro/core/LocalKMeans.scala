package repro.core

import repro.util.Rng

/** Driver-local k-means with k-means++ seeding (Section III-C).
  *
  * Per-attribute cell-feature sets hold one point per tuple (≤ ~7.4k on the
  * comparison datasets at paper scale, 10k on Tax 10k), so clustering runs
  * on the driver, deterministically, as the original runs sklearn there.
  *
  * Every distance is the squared euclidean distance summed over dimensions
  * in order, as `sqDist` sums it, but `fit` computes one centroid's
  * distances to a whole `Blocks` block at a time, which runs across points.
  */
object LocalKMeans {

  final case class Result(assignments: Array[Int], centroids: Array[Array[Double]])

  private val MaxIter = 12

  /** Points per column-major block. */
  private val BlockSize = 256

  /** `points` transposed once into blocks of `BlockSize` points: column d of
    * block b holds dimension d of points [b · BlockSize, b · BlockSize + len).
    */
  private final class Blocks(points: Array[Array[Double]]) {
    private val n = points.length
    private val dim = points(0).length
    private val cols: Array[Array[Array[Double]]] =
      Array.tabulate((n + BlockSize - 1) / BlockSize) { b =>
        val lo = b * BlockSize
        val len = math.min(BlockSize, n - lo)
        Array.tabulate(dim)(d => Array.tabulate(len)(i => points(lo + i)(d)))
      }

    val count: Int = cols.length

    /** The number of points in block `b`. */
    def len(b: Int): Int = math.min(BlockSize, n - b * BlockSize)

    /** `dist(i)`, for every point i of block `b`, is the squared distance
      * from point b · BlockSize + i to `c`. Each sum adds dimensions in order,
      * so it equals `sqDist` bit for bit; C2 compiles the inner loop to vector
      * subtracts, multiplies and adds across the block's points.
      */
    def sqDists(b: Int, c: Array[Double], dist: Array[Double]): Unit = {
      val block = cols(b)
      val len = this.len(b)
      java.util.Arrays.fill(dist, 0, len, 0.0)
      var d = 0
      while (d < dim) {
        val col = block(d); val cd = c(d)
        var i = 0
        while (i < len) { val t = col(i) - cd; dist(i) += t * t; i += 1 }
        d += 1
      }
    }

    /** The index of the centroid of `cs` nearest each point, into `assign`:
      * the lowest index among equal distances, as the strict `<` keeps the
      * first. A block's points meet every centroid before the next block.
      */
    def nearest(cs: Array[Array[Double]], assign: Array[Int]): Unit = {
      val bestD = new Array[Double](BlockSize)
      val dist = new Array[Double](BlockSize)
      var b = 0
      while (b < count) {
        val lo = b * BlockSize; val len = this.len(b)
        java.util.Arrays.fill(assign, lo, lo + len, 0)
        java.util.Arrays.fill(bestD, Double.MaxValue)
        var c = 0
        while (c < cs.length) {
          sqDists(b, cs(c), dist)
          var i = 0
          while (i < len) {
            if (dist(i) < bestD(i)) { bestD(i) = dist(i); assign(lo + i) = c }
            i += 1
          }
          c += 1
        }
        b += 1
      }
    }
  }

  def fit(points: Array[Array[Double]], k: Int, seedKey: String): Result = {
    require(points.nonEmpty, "kmeans on empty input")
    val n = points.length
    val kk = math.max(1, math.min(k, n))
    val blocks = new Blocks(points)
    val centroids = plusPlusInit(points, blocks, kk, seedKey)
    val assign = new Array[Int](n)
    val next = new Array[Int](n)
    var iter = 0
    var moved = true
    while (iter < MaxIter && moved) {
      blocks.nearest(centroids, next)
      moved = !java.util.Arrays.equals(next, assign)
      System.arraycopy(next, 0, assign, 0, n)
      // recompute means; empty clusters keep their previous centroid
      val sums = Array.fill(kk)(new Array[Double](points(0).length))
      val cnt = new Array[Int](kk)
      var i = 0
      while (i < n) {
        val c = assign(i); cnt(c) += 1
        add(sums(c), points(i))
        i += 1
      }
      var c = 0
      while (c < kk) {
        if (cnt(c) > 0) {
          var d = 0
          while (d < sums(c).length) { centroids(c)(d) = sums(c)(d) / cnt(c); d += 1 }
        }
        c += 1
      }
      iter += 1
    }
    Result(assign, centroids)
  }

  /** Index of the point closest to its cluster centroid, per cluster —
    * the representative the LLM labels (q_c in the paper). Cluster-aligned;
    * -1 marks an empty cluster (no point was assigned to it).
    */
  def representatives(points: Array[Array[Double]], res: Result): Array[Int] = {
    val k = res.centroids.length
    val best = Array.fill(k)(-1)
    val bestD = Array.fill(k)(Double.MaxValue)
    var i = 0
    while (i < points.length) {
      val c = res.assignments(i)
      val d = sqDist(points(i), res.centroids(c))
      if (d < bestD(c)) { bestD(c) = d; best(c) = i }
      i += 1
    }
    best
  }

  /** k-means++: the first centroid a seeded point, each next one a point
    * drawn with probability proportional to its squared distance to the
    * nearest centroid so far (a seeded point when every distance is 0).
    */
  private def plusPlusInit(points: Array[Array[Double]], blocks: Blocks, k: Int,
                           seedKey: String): Array[Array[Double]] = {
    val n = points.length
    val centroids = new Array[Array[Double]](k)
    centroids(0) = points(Rng.int(n, seedKey, "init0")).clone()
    val minD = Array.fill(n)(Double.MaxValue)
    val dist = new Array[Double](BlockSize)
    var c = 1
    while (c < k) {
      var b = 0
      while (b < blocks.count) {
        blocks.sqDists(b, centroids(c - 1), dist)
        val lo = b * BlockSize; val len = blocks.len(b)
        var i = 0
        while (i < len) { if (dist(i) < minD(lo + i)) minD(lo + i) = dist(i); i += 1 }
        b += 1
      }
      var total = 0.0
      var i = 0
      while (i < n) { total += minD(i); i += 1 }
      if (total <= 0) {
        centroids(c) = points(Rng.int(n, seedKey, "dup", c)).clone()
      } else {
        var target = Rng.unif(seedKey, "pick", c) * total
        var j = 0
        while (j < n - 1 && target > minD(j)) { target -= minD(j); j += 1 }
        centroids(c) = points(j).clone()
      }
      c += 1
    }
    centroids
  }

  /** The index of the centroid of `cs` nearest each of `points` (the lowest
    * index among equal distances).
    */
  def nearest(points: Array[Array[Double]], cs: Array[Array[Double]]): Array[Int] = {
    val assign = new Array[Int](points.length)
    if (points.nonEmpty) new Blocks(points).nearest(cs, assign)
    assign
  }

  def sqDist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    s
  }

  private def add(acc: Array[Double], x: Array[Double]): Unit = {
    var i = 0
    while (i < acc.length) { acc(i) += x(i); i += 1 }
  }
}
