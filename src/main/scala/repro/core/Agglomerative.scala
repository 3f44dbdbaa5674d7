package repro.core

import repro.util.Rng

/** Average-linkage agglomerative clustering (Table VI's AGC alternative).
  *
  * Classic AGC is O(n²)–O(n³); per the original's sklearn usage it runs on a
  * bounded subsample (≤ MaxPoints) and the remaining points are assigned to
  * the nearest resulting cluster centroid — standard practice for scaling
  * hierarchical clustering, documented in DESIGN.md.
  */
object Agglomerative {

  val MaxPoints = 500

  def fit(points: Array[Array[Double]], k: Int, seedKey: String): LocalKMeans.Result = {
    val n = points.length
    val kk = math.max(1, math.min(k, n))
    val subIdx: Array[Int] =
      if (n <= MaxPoints) Array.range(0, n)
      else Array.tabulate(MaxPoints)(i => Rng.int(n, seedKey, "sub", i)).distinct
    val sub = subIdx.map(points)
    val m = sub.length
    val kEff = math.min(kk, m)

    // cluster membership over the subsample
    val members = Array.tabulate(m)(i => scala.collection.mutable.ArrayBuffer(i))
    val active = scala.collection.mutable.ArrayBuffer.tabulate(m)(identity)
    // pairwise average-linkage distances via centroid sums (average linkage
    // approximated by centroid distance — the common scalable variant)
    val sums = sub.map(_.clone())
    val cnts = Array.fill(m)(1)

    def centroid(c: Int): Array[Double] = {
      val v = new Array[Double](sums(c).length)
      var d = 0
      while (d < v.length) { v(d) = sums(c)(d) / cnts(c); d += 1 }
      v
    }

    while (active.length > kEff) {
      // find the closest active pair by centroid distance
      var bi = 0; var bj = 1; var bd = Double.MaxValue
      var i = 0
      while (i < active.length) {
        val ci = centroid(active(i))
        var j = i + 1
        while (j < active.length) {
          val d = LocalKMeans.sqDist(ci, centroid(active(j)))
          if (d < bd) { bd = d; bi = i; bj = j }
          j += 1
        }
        i += 1
      }
      val a = active(bi); val b = active(bj)
      members(a) ++= members(b)
      var d = 0
      while (d < sums(a).length) { sums(a)(d) += sums(b)(d); d += 1 }
      cnts(a) += cnts(b)
      active.remove(bj)
    }

    val centroids = active.toArray.map(centroid)
    val assignments = LocalKMeans.nearest(points, centroids)
    LocalKMeans.Result(assignments, centroids)
  }
}
