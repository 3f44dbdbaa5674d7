package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{CellStats, LocalKMeans}
import repro.data.{CellTable, EDataset}
import repro.llm.Criteria

/** Raha [10]: a configuration-free ensemble — run a battery of cheap
  * detection strategies per cell, cluster cells per attribute in the
  * resulting feature space, and propagate a few human labels (2 tuples, the
  * paper's minimal-label setting; Fig. 6 shows Raha needs ~20+ tuples to be
  * competitive) to the clusters that contain them. Unlabeled clusters
  * default to clean, which caps recall at a low label budget.
  */
object Raha {

  val LabeledTuples = 2
  val ClustersPerAttr = 4

  def detect(spark: SparkSession, ds: EDataset): DataFrame = {
    val fds = ds.spec.fds
    // Every tuple in tid order: the k-means input order.
    val tuples = ds.tuples
    val stats = CellStats.count(tuples, ds.attrs, Nadeef.fdPairs(fds))
    val n = stats.n.toDouble

    // FD-violation strategy (Nadeef's constraint set and definition).
    val viol = Nadeef.fdViolations(fds, stats)
    val fdFlagged: Set[(Long, String)] =
      tuples.flatMap { case (t, row) => Nadeef.fdFlagged(viol, row).map(t -> _) }.toSet

    val numericAttrs = ds.spec.numericAttrs
    def battery(tid: Long, attr: String, v: String): Array[Double] = Array(
      if (v.isEmpty) 1.0 else 0.0,
      if (stats.patCount(attr, 2, v) / n < 0.02) 1.0 else 0.0,
      if (stats.valueCount(attr, v) / n < 0.01) 1.0 else 0.0,
      if (numericAttrs.contains(attr) && Criteria.parseNumber(v).isEmpty) 1.0 else 0.0,
      if (fdFlagged.contains((tid, attr))) 1.0 else 0.0,
    )

    // Ground-truth labels on the two sampled tuples: tid → attr → is_error.
    val labeled = CellTable.labeled(ds, "rahaLab", LabeledTuples)
    val truth = labeled.map { case (t, _, isError) => t -> isError }.toMap

    // Strategy-profile propagation across attributes: a labeled erroneous
    // cell's battery signature marks every cell sharing it as dirty (Raha's
    // "same strategies fired" reasoning), complemented by per-attribute
    // in-cluster propagation. Non-firing signatures stay clean.
    val errSignatures: Set[Seq[Double]] = labeled.flatMap { case (t, row, isError) =>
      isError.collect { case (a, true) => battery(t, a, row(a)).toSeq }
    }.filter(_.exists(_ > 0)).toSet

    val flagged = ds.attrs.flatMap { a =>
      val rows = tuples.map { case (t, row) => (t, row(a)) }
      val feats = rows.map { case (t, v) => battery(t, a, v) }
      if (feats.isEmpty) Seq.empty
      else {
        val res = LocalKMeans.fit(feats, math.min(ClustersPerAttr, feats.length),
                                  s"raha:${ds.name}:$a")
        // cluster → majority label of the labeled cells it contains
        val clusterLabels: Map[Int, Boolean] = rows.indices
          .filter(i => truth.contains(rows(i)._1))
          .groupBy(i => res.assignments(i))
          .map { case (c, is) =>
            val errs = is.count(i => truth(rows(i)._1)(a))
            c -> (errs * 2 > is.size)
          }
        rows.indices.collect {
          case i if clusterLabels.getOrElse(res.assignments(i), false) ||
                    errSignatures.contains(feats(i).toSeq) => rows(i)._1 -> a
        }
      }
    }
    CellTable.flagged(spark, flagged)
  }
}
