package repro.exp

import org.apache.spark.sql.SparkSession
import repro.data.Datasets

/** Table II: dataset statistics — tuple/attribute counts, overall error
  * rate, and per-type error rates, computed from the ground truth each
  * dataset holds on the driver since load (`ds.errTypes`).
  */
object TableII {

  final case class Row(name: String, tuples: Long, attrs: Int, err: Double,
                       mv: Double, pv: Double, t: Double, o: Double, rv: Double)

  def run(spark: SparkSession, names: Seq[String] = Datasets.byName.keys.toSeq,
          sc: Double = Runner.scale): Seq[Row] = {
    val order = Seq("hospital", "flights", "beers", "rayyan", "billionaire",
                    "movies", "tax").filter(names.contains)
    order.map { name =>
      val ds = Runner.dataset(spark, name, sc)
      val n = ds.tuples.length.toLong
      val cells = (n * ds.attrs.size).toDouble
      val byType = ds.errTypes.values.groupMapReduce(identity)(_ => 1L)(_ + _)
      def pct(t: String) = 100.0 * byType.getOrElse(t, 0L) / cells
      Row(name, n, ds.attrs.size, 100.0 * byType.values.sum / cells,
          pct("MV"), pct("PV"), pct("T"), pct("O"), pct("RV"))
    }
  }

  def render(rows: Seq[Row]): String = {
    def f(x: Double) = f"$x%.2f"
    Fmt.table(
      Seq("Name", "#Tuples", "#A.", "Err.(%)", "MV(%)", "PV(%)", "T(%)", "O(%)", "RV(%)"),
      rows.map { r =>
        val p = PaperNumbers.tableII(r.name)
        Seq(r.name,
          s"${r.tuples} (paper ${p._1})", s"${r.attrs} (paper ${p._2})",
          s"${f(r.err)} (paper ${f(p._3)})", s"${f(r.mv)} (paper ${f(p._4)})",
          s"${f(r.pv)} (paper ${f(p._5)})", s"${f(r.t)} (paper ${f(p._6)})",
          s"${f(r.o)} (paper ${f(p._7)})", s"${f(r.rv)} (paper ${f(p._8)})")
      })
  }
}
