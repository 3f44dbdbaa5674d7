package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestData}

object CellTableSpec {

  /** The oracle melt of a wide dataset (tid + string attrs) into
    * (tid, attr, value), with Spark SQL's `stack`.
    */
  def cells(df: DataFrame, attrs: Seq[String]): DataFrame = {
    val stackArgs = attrs.map(a => s"'$a', `$a`").mkString(", ")
    df.selectExpr("tid", s"stack(${attrs.size}, $stackArgs) as (attr, value)")
  }
}

class CellTableSpec extends SparkSpec {
  import CellTableSpec.cells

  private lazy val ds = TestData.hospitalSmall(spark)

  test("cells yields #tuples x #attrs rows") {
    val c = cells(ds.dirty, ds.attrs)
    assert(c.count() == ds.dirty.count() * ds.attrs.size)
  }

  test("cells preserves values") {
    val row = ds.dirty.where(col("tid") === 0L).collect()(0)
    val byAttr = cells(ds.dirty, ds.attrs)
      .where(col("tid") === 0L).collect()
      .map(r => r.getString(1) -> r.getString(2)).toMap
    ds.attrs.foreach(a => assert(byAttr(a) == row.getAs[String](a)))
  }

  test("oracle: melted value frequencies match DuckDB unpivot") {
    val freq = cells(ds.dirty, ds.attrs)
      .where(col("attr") === "city")
      .groupBy("value").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(freq,
      "SELECT city AS value, count(1) AS n FROM dirty GROUP BY city",
      "dirty" -> ds.dirty)
  }

  test("predictions holds exactly the cells the judgement flags, keyed by tid") {
    val judgedAttrs = ds.attrs.filter(_ != "city")
    val judged = CellTable.predictions(spark, ds.tuples)((tid, row) =>
      judgedAttrs.filter(a => (row(a).length + tid) % 2 == 0))
      .collect().map(r => (r.getLong(0), r.getString(1), r.getBoolean(2))).toSeq
    val melted = cells(ds.dirty, ds.attrs).where(col("attr") =!= "city").collect()
      .map(r => (r.getLong(0), r.getString(1), r.getString(2)))
      .collect { case (t, a, v) if (v.length + t) % 2 == 0 => (t, a, true) }.toSet
    assert(melted.nonEmpty && melted.size < ds.dirty.count() * (ds.attrs.size - 1))
    assert(judged.size == melted.size)
    assert(judged.toSet == melted)
  }

  test("labeled reads each drawn tuple's values and mask labels") {
    val n = ds.dirty.count()
    val labeled = CellTable.labeled(ds, "spec", 3)
    val tids = (0 until 3).map(i => repro.util.Rng.int(n.toInt, ds.name, "spec", i).toLong)
    assert(labeled.map(_._1) == tids.distinct.sorted)
    val melted = cells(ds.dirty, ds.attrs).collect()
      .map(r => (r.getLong(0), r.getString(1)) -> r.getString(2)).toMap
    val truth = ds.mask.collect().map { r =>
      (r.getAs[Long]("tid"), r.getAs[String]("attr")) -> r.getAs[Boolean]("is_error")
    }.toMap
    labeled.foreach { case (t, row, isError) =>
      assert(row == ds.attrs.map(a => a -> melted((t, a))).toMap)
      assert(isError == ds.attrs.map(a => a -> truth((t, a))).toMap)
    }
  }
}
