package repro.core

import repro.util.Rng

/** Clustering-based representative sampling (Section III-C, Table VI).
  *
  * For each attribute, cluster its cell-feature vectors into
  * s = ceil(#tuples · labelRate) groups and pick the point nearest each
  * centroid as the representative the LLM labels. "random" picks the samples
  * uniformly and forms Voronoi cells around them so that in-cluster label
  * propagation still applies.
  */
object Sampling {

  /** Per-attribute clustering outcome: assignment of every cell index to a
    * cluster, and `reps` — the representative cell index per cluster
    * (cluster-aligned; -1 for empty clusters). The cells the LLM labels are
    * `reps.filter(_ >= 0)`.
    */
  final case class AttrClusters(attr: String, assignments: Array[Int],
                                reps: Array[Int]) {
    def sampledIdx: Array[Int] = reps.filter(_ >= 0)
  }

  def cluster(method: String, attr: String, feats: Array[Array[Double]],
              s: Int, seedKey: String): AttrClusters = method match {
    case "kmeans" =>
      val res = LocalKMeans.fit(feats, s, s"$seedKey:$attr")
      AttrClusters(attr, res.assignments, LocalKMeans.representatives(feats, res))
    case "agc" =>
      val res = Agglomerative.fit(feats, s, s"$seedKey:$attr")
      AttrClusters(attr, res.assignments, LocalKMeans.representatives(feats, res))
    case "random" =>
      val n = feats.length
      val k = math.max(1, math.min(s, n))
      val picked = scala.collection.mutable.LinkedHashSet.empty[Int]
      var i = 0
      while (picked.size < k && i < 20 * k) {
        picked += Rng.int(n, seedKey, attr, "rand", i)
        i += 1
      }
      val reps = picked.toArray
      val centroids = reps.map(feats)
      val assignments = LocalKMeans.nearest(feats, centroids)
      // Force each representative into its own Voronoi cell (distance ties).
      reps.zipWithIndex.foreach { case (p, c) => assignments(p) = c }
      AttrClusters(attr, assignments, reps)
    case other =>
      throw new IllegalArgumentException(s"unknown clustering method '$other'")
  }

  /** Number of clusters for a label budget: data_size × label_rate. */
  def clusterCount(nTuples: Long, labelRate: Double): Int =
    math.max(1, math.ceil(nTuples * labelRate).toInt)
}
