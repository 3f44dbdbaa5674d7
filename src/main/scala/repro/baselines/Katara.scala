package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.{CellTable, EDataset}

/** Katara [14]: knowledge-base powered detection. For each KB relation
  * (lhsAttr → rhsAttr), any tuple whose lhs value the KB covers but whose
  * rhs value disagrees with the KB is flagged on the rhs cell; a cell that
  * several relations judge is flagged when any of them flags it. Datasets
  * without an applicable KB get no detections — exactly the paper's zeros on
  * Flights/Beers/Rayyan/Movies.
  */
object Katara {

  def detect(spark: SparkSession, ds: EDataset): DataFrame = {
    // Each rhs attribute with the KB relations that judge it, in KB order.
    val kb = ds.spec.kb
    val byRhs = kb.map(_.rhsAttr).distinct.map(a => a -> kb.filter(_.rhsAttr == a))
    CellTable.predictions(spark, ds.tuples) { (_, row) =>
      byRhs.filter { case (rhs, rels) =>
        rels.exists(rel => rel.mapping.get(row(rel.lhsAttr)).exists(_ != row(rhs)))
      }.map(_._1)
    }
  }
}
