package repro.data

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestData}

class CellTableSpec extends SparkSpec {

  private lazy val ds = TestData.hospitalSmall(spark)

  test("cells yields #tuples x #attrs rows") {
    val c = CellTable.cells(ds.dirty, ds.attrs)
    assert(c.count() == ds.dirty.count() * ds.attrs.size)
  }

  test("cells preserves values") {
    val row = ds.dirty.where(col("tid") === 0L).collect()(0)
    val cells = CellTable.cells(ds.dirty, ds.attrs)
      .where(col("tid") === 0L).collect()
      .map(r => r.getString(1) -> r.getString(2)).toMap
    ds.attrs.foreach(a => assert(cells(a) == row.getAs[String](a)))
  }

  test("oracle: melted value frequencies match DuckDB unpivot") {
    val freq = CellTable.cells(ds.dirty, ds.attrs)
      .where(col("attr") === "city")
      .groupBy("value").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(freq,
      "SELECT city AS value, count(1) AS n FROM dirty GROUP BY city",
      "dirty" -> ds.dirty)
  }
}
