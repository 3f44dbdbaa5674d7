package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.{Datasets, EDataset}

/** Shared, lazily-generated small datasets so suites don't regenerate them.
  * Tests run in one JVM (Test / parallelExecution := false), so a plain
  * synchronized cache is enough.
  */
object TestData {
  private val cache = scala.collection.mutable.Map.empty[(String, Double), EDataset]

  def get(spark: SparkSession, name: String, scale: Double): EDataset =
    synchronized {
      cache.getOrElseUpdate((name, scale), {
        val ds = Datasets.load(spark, name, scale)
        ds.dirty.cache(); ds.clean.cache(); ds.mask.cache()
        ds.dirty.count(); ds.clean.count(); ds.mask.count()
        ds
      })
    }

  def hospitalSmall(spark: SparkSession): EDataset = get(spark, "hospital", 0.2)
  def flightsSmall(spark: SparkSession): EDataset  = get(spark, "flights", 0.1)
  def beersSmall(spark: SparkSession): EDataset    = get(spark, "beers", 0.1)

  /** The oracle of the load's ground truth: the error type of each erroneous
    * cell of an error mask, read with Spark (the form of `EDataset.errTypes`).
    */
  def errorTypes(mask: DataFrame): Map[(Long, String), String] =
    mask.where("is_error").select("tid", "attr", "err_type").collect()
      .map(r => (r.getLong(0), r.getString(1)) -> r.getString(2)).toMap
}
