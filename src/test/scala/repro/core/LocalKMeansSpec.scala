package repro.core

import org.scalatest.funsuite.AnyFunSuite

class LocalKMeansSpec extends AnyFunSuite {

  private def gauss2(n: Int): Array[Array[Double]] =
    Array.tabulate(n) { i =>
      val c = if (i % 2 == 0) 0.0 else 10.0
      Array(c + repro.util.Rng.unif("km", i, 0), c + repro.util.Rng.unif("km", i, 1))
    }

  test("separates two well-separated blobs") {
    val pts = gauss2(200)
    val res = LocalKMeans.fit(pts, 2, "t1")
    val g0 = (0 until 200 by 2).map(res.assignments)
    val g1 = (1 until 200 by 2).map(res.assignments)
    assert(g0.distinct.size == 1)
    assert(g1.distinct.size == 1)
    assert(g0.head != g1.head)
  }

  test("assignments index valid clusters") {
    val pts = gauss2(101)
    val res = LocalKMeans.fit(pts, 7, "t2")
    assert(res.assignments.forall(c => c >= 0 && c < res.centroids.length))
    assert(res.centroids.length == 7)
  }

  test("k greater than n degenerates gracefully") {
    val pts = gauss2(3)
    val res = LocalKMeans.fit(pts, 10, "t3")
    assert(res.centroids.length == 3)
  }

  test("deterministic under the same seed key") {
    val pts = gauss2(60)
    val a = LocalKMeans.fit(pts, 4, "same")
    val b = LocalKMeans.fit(pts, 4, "same")
    assert(a.assignments.toSeq == b.assignments.toSeq)
  }

  test("empty input is rejected") {
    intercept[IllegalArgumentException](LocalKMeans.fit(Array.empty, 2, "t4"))
  }

  test("representatives are cluster-aligned and belong to their cluster") {
    val pts = gauss2(100)
    val res = LocalKMeans.fit(pts, 5, "t5")
    val reps = LocalKMeans.representatives(pts, res)
    assert(reps.length == res.centroids.length)
    reps.zipWithIndex.foreach { case (r, c) =>
      if (r >= 0) assert(res.assignments(r) == c)
    }
    // every non-empty cluster has a representative
    res.assignments.distinct.foreach(c => assert(reps(c) >= 0))
  }

  test("representative is the in-cluster point nearest the centroid") {
    val pts = gauss2(80)
    val res = LocalKMeans.fit(pts, 3, "t6")
    val reps = LocalKMeans.representatives(pts, res)
    reps.zipWithIndex.filter(_._1 >= 0).foreach { case (r, c) =>
      val dRep = LocalKMeans.sqDist(pts(r), res.centroids(c))
      pts.indices.filter(res.assignments(_) == c).foreach { i =>
        assert(dRep <= LocalKMeans.sqDist(pts(i), res.centroids(c)) + 1e-12)
      }
    }
  }

  test("nearest picks the argmin centroid") {
    val cs = Array(Array(0.0, 0.0), Array(5.0, 5.0))
    assert(LocalKMeans.nearest(Array(Array(1.0, 1.0), Array(4.0, 4.9)), cs).toSeq == Seq(0, 1))
  }

  test("nearest breaks a tie towards the lower centroid index") {
    val cs = Array(Array(2.0), Array(0.0), Array(2.0), Array(0.0))
    assert(LocalKMeans.nearest(Array(Array(1.0), Array(2.0), Array(0.0)), cs).toSeq == Seq(0, 0, 1))
  }

  test("fit equals the scalar reference at block edges, k >= n, ties and one repeated point") {
    for {
      kind <- Seq("spread", "grid", "same")
      dim <- Seq(1, 5, 87)
      (n, k) <- Seq((1, 1), (7, 7), (7, 12), (100, 9), (255, 16), (256, 16), (257, 16), (257, 300))
    } {
      val diff = LocalKMeansProps.difference(LocalKMeansProps.points(kind, n, dim, n + dim), k, s"edge-$n")
      assert(diff.isEmpty, s"$kind n=$n dim=$dim k=$k: ${diff.getOrElse("")} differ")
    }
  }

  test("sqDist is squared euclidean") {
    assert(LocalKMeans.sqDist(Array(0.0, 0.0), Array(3.0, 4.0)) == 25.0)
  }
}
