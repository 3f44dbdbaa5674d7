package repro.baselines

import org.apache.spark.ml.classification.LogisticRegression
import org.apache.spark.ml.linalg.{Vector, Vectors}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.CellStats
import repro.data.{CellTable, EDataset}
import repro.util.Rng

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
    val cells = CellTable.cells(ds.dirty, ds.attrs)
    val stats = CellStats.count(ds.dirty, ds.attrs, Seq.empty)
    val n = stats.n.toDouble

    val featUdf = udf { (attr: String, v: String) =>
      Vectors.dense(
        stats.valueCount(attr, v) / n,
        stats.l2Count(attr, v) / n,
        math.min(1.0, v.length / 20.0),
        if (v.isEmpty) 1.0 else 0.0): Vector
    }
    val feats = cells.select($"tid", $"attr", featUdf($"attr", $"value").as("features"))

    // Two manually labeled tuples (ground truth on those cells only).
    val tids = (0 until LabeledTuples).map(i => Rng.int(n.toInt, ds.name, "acLab", i).toLong)
    val labeled = feats.join(ds.mask.where($"tid".isin(tids: _*)), Seq("tid", "attr"))
      .select($"features", when($"is_error", 1.0).otherwise(0.0).as("label"))
      .collect()

    if (labeled.map(_.getDouble(1)).distinct.length < 2) {
      // Degenerate labeled set: fall back to flagging below-average
      // frequency cells (ActiveClean's "everything suspicious" regime).
      val vc = stats.valueCounts
      val meanVf = vc.values.sum / math.max(1.0, vc.size.toDouble) / n
      val flag = udf((attr: String, v: String) => stats.valueCount(attr, v) / n < meanVf)
      cells.select($"tid", $"attr", flag($"attr", $"value").as("pred"))
    } else {
      val nErr = labeled.count(_.getDouble(1) == 1.0).toDouble
      val w = (labeled.length - nErr) / math.max(1.0, nErr)
      val train = labeled.toSeq.map(r => (r.getAs[Vector](0), r.getDouble(1),
        if (r.getDouble(1) == 1.0) w else 1.0)).toDF("features", "label", "w")
      val lr = new LogisticRegression().setWeightCol("w").setMaxIter(50)
      val m = lr.fit(train)
      m.transform(feats).select($"tid", $"attr", ($"prediction" === 1.0).as("pred"))
    }
  }
}
