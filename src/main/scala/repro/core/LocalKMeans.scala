package repro.core

import repro.util.Rng

/** Driver-local k-means with k-means++ seeding (Section III-C).
  *
  * Per-attribute cell-feature sets hold one point per tuple (≤ ~7.4k on the
  * comparison datasets at paper scale, 10k on Tax 10k), so clustering runs
  * on the driver, deterministically, as the original runs sklearn there.
  */
object LocalKMeans {

  final case class Result(assignments: Array[Int], centroids: Array[Array[Double]])

  private val MaxIter = 12

  def fit(points: Array[Array[Double]], k: Int, seedKey: String): Result = {
    require(points.nonEmpty, "kmeans on empty input")
    val n = points.length
    val kk = math.max(1, math.min(k, n))
    val centroids = plusPlusInit(points, kk, seedKey)
    val assign = new Array[Int](n)
    var iter = 0
    var moved = true
    while (iter < MaxIter && moved) {
      moved = false
      var i = 0
      while (i < n) {
        val c = nearest(points(i), centroids)
        if (c != assign(i)) { assign(i) = c; moved = true }
        i += 1
      }
      // recompute means; empty clusters keep their previous centroid
      val sums = Array.fill(kk)(new Array[Double](points(0).length))
      val cnt = new Array[Int](kk)
      i = 0
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

  private def plusPlusInit(points: Array[Array[Double]], k: Int,
                           seedKey: String): Array[Array[Double]] = {
    val n = points.length
    val centroids = new Array[Array[Double]](k)
    centroids(0) = points(Rng.int(n, seedKey, "init0")).clone()
    val minD = Array.fill(n)(Double.MaxValue)
    var c = 1
    while (c < k) {
      var i = 0
      var total = 0.0
      while (i < n) {
        val d = sqDist(points(i), centroids(c - 1))
        if (d < minD(i)) minD(i) = d
        total += minD(i)
        i += 1
      }
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

  def nearest(p: Array[Double], cs: Array[Array[Double]]): Int = {
    var best = 0; var bestD = Double.MaxValue; var c = 0
    while (c < cs.length) {
      val d = sqDist(p, cs(c))
      if (d < bestD) { bestD = d; best = c }
      c += 1
    }
    best
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
