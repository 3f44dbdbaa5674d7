package repro.baselines

import org.apache.spark.ml.classification.LogisticRegression
import org.apache.spark.ml.linalg.Vectors
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
    import spark.implicits._
    val stats = CellStats.count(CellTable.tuples(ds.dirty, ds.attrs), ds.attrs, Seq.empty)
    val n = stats.n.toDouble

    val features = (attr: String, v: String) => Vectors.dense(
      stats.valueCount(attr, v) / n,
      stats.patCount(attr, 2, v) / n,
      math.min(1.0, v.length / 20.0),
      if (v.isEmpty) 1.0 else 0.0)

    // Two manually labeled tuples (ground truth on those cells only).
    val labeled = CellTable.labeledTuples(ds, stats.n, "acLab", LabeledTuples).flatMap {
      case (_, row, isError) =>
        ds.attrs.map(a => (features(a, row(a)), if (isError(a)) 1.0 else 0.0))
    }

    if (labeled.map(_._2).distinct.length < 2) {
      // Degenerate labeled set: fall back to flagging below-average
      // frequency cells (ActiveClean's "everything suspicious" regime).
      val vc = stats.valueCounts
      val meanVf = vc.values.sum / math.max(1.0, vc.size.toDouble) / n
      CellTable.predict(ds)((_, row) =>
        row.transform((a, v) => stats.valueCount(a, v) / n < meanVf))
    } else {
      val nErr = labeled.count(_._2 == 1.0).toDouble
      val w = (labeled.length - nErr) / math.max(1.0, nErr)
      val train = labeled.map { case (f, l) => (f, l, if (l == 1.0) w else 1.0) }
        .toDF("features", "label", "w")
      val m = new LogisticRegression().setWeightCol("w").setMaxIter(50).fit(train)
      CellTable.predict(ds)((_, row) => row.transform((a, v) => m.predict(features(a, v)) == 1.0))
    }
  }
}
