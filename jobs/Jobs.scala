package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp._

/** spark-submit --class repro.jobs.TableJob <jar> <II|III|IV|V|VI> — renders
  * one evaluation table: II dataset statistics, III method comparison,
  * IV ablation study, V LLM comparison, VI clustering methods.
  */
object TableJob {
  private val tables: Seq[(String, SparkSession => String)] = Seq(
    "II"  -> (s => TableII.render(TableII.run(s))),
    "III" -> (s => TableIII.render(TableIII.run(s))),
    "IV"  -> (s => TableIV.render(TableIV.run(s))),
    "V"   -> (s => TableV.render(TableV.run(s))),
    "VI"  -> (s => TableVI.render(TableVI.run(s))),
  )

  /** The renderer of the one table named in `args`. */
  def table(args: Seq[String]): SparkSession => String =
    tables.collectFirst { case (name, render) if args == Seq(name) => render }.getOrElse {
      throw new IllegalArgumentException(
        s"usage: TableJob <${tables.map(_._1).mkString("|")}>; got " +
        (if (args.isEmpty) "no table name" else args.mkString("'", " ", "'")))
    }

  def main(args: Array[String]): Unit = {
    val render = table(args.toSeq)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"zeroed-table-${args(0)}")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try println(render(spark)) finally spark.stop()
  }
}
