package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.forAll
import repro.util.Rng

/** `LocalKMeans` against `ScalarKMeans`, compared bit for bit. */
object LocalKMeansProps extends Properties("LocalKMeans") {

  /** n points of `dim` dimensions: "spread" draws every coordinate from
    * [-1, 1), "grid" from {0, 1, 2} (many duplicate points and equal
    * distances), and "same" repeats one point (every distance is 0).
    */
  def points(kind: String, n: Int, dim: Int, salt: Int): Array[Array[Double]] =
    Array.tabulate(n, dim) { (i, d) =>
      kind match {
        case "spread" => Rng.unif("kmp", salt, i, d) * 2 - 1
        case "grid"   => Rng.int(3, "kmp", salt, i, d).toDouble
        case "same"   => 0.25 * (d + 1)
      }
    }

  /** The first way `LocalKMeans` differs from `ScalarKMeans` on `pts`, if any:
    * in assignments, centroids (compared by their bits), representatives, or
    * the nearest of the fitted centroids to every point.
    */
  def difference(pts: Array[Array[Double]], k: Int, seedKey: String): Option[String] = {
    val got = LocalKMeans.fit(pts, k, seedKey)
    val want = ScalarKMeans.fit(pts, k, seedKey)
    val centroidsEqual = got.centroids.length == want.centroids.length &&
      got.centroids.indices.forall(c => java.util.Arrays.equals(got.centroids(c), want.centroids(c)))
    if (!(got.assignments sameElements want.assignments)) Some("assignments")
    else if (!centroidsEqual) Some("centroids")
    else if (!(LocalKMeans.representatives(pts, got) sameElements ScalarKMeans.representatives(pts, want)))
      Some("representatives")
    else if (!(LocalKMeans.nearest(pts, want.centroids) sameElements
               pts.map(ScalarKMeans.nearest(_, want.centroids)))) Some("nearest")
    else None
  }

  private val shapes: Gen[(String, Int, Int, Int, Int)] = for {
    kind <- Gen.oneOf("spread", "grid", "same")
    n <- Gen.frequency(3 -> Gen.choose(1, 300), 1 -> Gen.oneOf(255, 256, 257, 513))
    dim <- Gen.oneOf(1, 5, 87)
    k <- if (n <= 20) Gen.choose(1, n + 3) else Gen.choose(1, 24)
    salt <- Gen.choose(0, 1 << 20)
  } yield (kind, n, dim, k, salt)

  property("fit, representatives and nearest equal the scalar reference") =
    forAll(shapes) { case (kind, n, dim, k, salt) =>
      val diff = difference(points(kind, n, dim, salt), k, s"kmp-$salt")
      Prop(diff.isEmpty) :| s"$kind n=$n dim=$dim k=$k salt=$salt: ${diff.getOrElse("")} differ"
    }
}
