package repro.core

import repro.util.Rng

/** The reference for `LocalKMeans`: the same k-means++ seeding, Lloyd
  * iterations and representatives, computed one point and one `sqDist` at a
  * time.
  */
object ScalarKMeans {

  private val MaxIter = 12

  def fit(points: Array[Array[Double]], k: Int, seedKey: String): LocalKMeans.Result = {
    require(points.nonEmpty, "kmeans on empty input")
    val n = points.length
    val kk = math.max(1, math.min(k, n))
    val centroids = plusPlusInit(points, kk, seedKey)
    val assign = new Array[Int](n)
    var iter = 0
    var moved = true
    while (iter < MaxIter && moved) {
      moved = false
      for (i <- 0 until n) {
        val c = nearest(points(i), centroids)
        if (c != assign(i)) { assign(i) = c; moved = true }
      }
      // recompute means; empty clusters keep their previous centroid
      val sums = Array.fill(kk)(new Array[Double](points(0).length))
      val cnt = new Array[Int](kk)
      for (i <- 0 until n) {
        val c = assign(i); cnt(c) += 1
        for (d <- sums(c).indices) sums(c)(d) += points(i)(d)
      }
      for (c <- 0 until kk if cnt(c) > 0; d <- sums(c).indices)
        centroids(c)(d) = sums(c)(d) / cnt(c)
      iter += 1
    }
    LocalKMeans.Result(assign, centroids)
  }

  def representatives(points: Array[Array[Double]], res: LocalKMeans.Result): Array[Int] = {
    val k = res.centroids.length
    val best = Array.fill(k)(-1)
    val bestD = Array.fill(k)(Double.MaxValue)
    for (i <- points.indices) {
      val c = res.assignments(i)
      val d = sqDist(points(i), res.centroids(c))
      if (d < bestD(c)) { bestD(c) = d; best(c) = i }
    }
    best
  }

  private def plusPlusInit(points: Array[Array[Double]], k: Int,
                           seedKey: String): Array[Array[Double]] = {
    val n = points.length
    val centroids = new Array[Array[Double]](k)
    centroids(0) = points(Rng.int(n, seedKey, "init0")).clone()
    val minD = Array.fill(n)(Double.MaxValue)
    for (c <- 1 until k) {
      var total = 0.0
      for (i <- 0 until n) {
        val d = sqDist(points(i), centroids(c - 1))
        if (d < minD(i)) minD(i) = d
        total += minD(i)
      }
      if (total <= 0) {
        centroids(c) = points(Rng.int(n, seedKey, "dup", c)).clone()
      } else {
        var target = Rng.unif(seedKey, "pick", c) * total
        var j = 0
        while (j < n - 1 && target > minD(j)) { target -= minD(j); j += 1 }
        centroids(c) = points(j).clone()
      }
    }
    centroids
  }

  def nearest(p: Array[Double], cs: Array[Array[Double]]): Int = {
    var best = 0; var bestD = Double.MaxValue
    for (c <- cs.indices) {
      val d = sqDist(p, cs(c))
      if (d < bestD) { bestD = d; best = c }
    }
    best
  }

  def sqDist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    for (i <- a.indices) { val d = a(i) - b(i); s += d * d }
    s
  }
}
