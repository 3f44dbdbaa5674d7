package repro.baselines

import java.util.regex.Pattern
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.CellStats
import repro.data.{CellTable, EDataset, FD}

/** Nadeef [13]: violations of manually predefined rules — not-null checks,
  * per-attribute regex patterns, and FD denial constraints. As in the real
  * system, *every* cell participating in a violated FD group is flagged
  * (both sides), which is what drives its low precision in Table III.
  */
object Nadeef {

  /** The one definition of an FD violation, read from counts made with
    * `FD.pairs(fds)`, as `EDataset.stats` are: each FD's lhs values that
    * co-occur with more than one rhs value.
    */
  def fdViolations(fds: Seq[FD], stats: CellStats): Map[FD, Set[String]] = {
    // Co-occurrence keys are distinct: a (rhs, lhs, lv) group's keys are its rhs values.
    val nRhs = stats.coCounts.keys
      .groupMapReduce { case (rhs, _, lhs, lv) => (rhs, lhs, lv) }(_ => 1)(_ + _)
    fds.map(fd => fd -> nRhs.collect { case ((fd.rhs, fd.lhs, lv), k) if k > 1 => lv }.toSet).toMap
  }

  /** The attributes of a tuple in a violated FD group: both sides of each such FD. */
  def fdFlagged(viol: Map[FD, Set[String]], row: String => String): Set[String] =
    viol.flatMap { case (fd, bad) => if (bad(row(fd.lhs))) Seq(fd.lhs, fd.rhs) else Nil }.toSet

  def detect(spark: SparkSession, ds: EDataset): DataFrame = {
    val fds = ds.spec.fds
    val viol = fdViolations(fds, ds.stats)
    // Not-null rules + regex pattern rules (the dataset's "manual criteria"),
    // each pattern compiled once.
    val patterns = ds.spec.nadeefPatterns.map { case (a, re) => a -> Pattern.compile(re) }
    CellTable.predictions(spark, ds.tuples) { (_, row) =>
      val inFdGroup = fdFlagged(viol, row)
      row.collect {
        case (a, v) if v.isEmpty || patterns.get(a).exists(re => !re.matcher(v).matches()) ||
                       inFdGroup(a) => a
      }
    }
  }
}
