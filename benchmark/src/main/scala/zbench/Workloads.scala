package zbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.{ActiveClean, DBoost, FMED, Katara, Nadeef, Raha}
import repro.core.{Metrics, ZeroED, ZeroEDConfig}
import repro.data.{Datasets, EDataset}

/** One benchmark workload: a dataset at a scale, and the pipeline that is
  * timed on it. `zeroed` workloads time `ZeroED.run`; the other kind times
  * one pass over the six baselines plus `Metrics.evaluate`. `warmups` is
  * the number of untimed runs before timing starts.
  */
final case class Workload(name: String, dataset: String, scale: Double, zeroed: Boolean,
                          warmups: Int, f1Floor: Option[Double])

/** Seeds from the `--seed` argument. Without one, the repository defaults
  * apply: dataset spec seed 7 and ZeroEDConfig seed 42.
  */
final case class Seeds(spec: Long, config: Long)

object Seeds {
  val Default: Seeds = Seeds(7L, 42L)
  def of(seed: Option[Long]): Seeds = seed.fold(Default)(s => Seeds(s, s))
}

object Workloads {
  val all: Seq[Workload] = Seq(
    // The floor is the one the Table III bench asserts for ZeroED. The first
    // run pays JIT compilation and Spark's code generation. On the shorter
    // baselines pass the second run still varies by about 20% across
    // processes, the third by about 5%.
    Workload("zeroed-hospital", "hospital", 1.0, zeroed = true, warmups = 1,
             f1Floor = Some(0.5)),
    Workload("baselines-flights", "flights", 1.0, zeroed = false, warmups = 2, f1Floor = None),
  )

  def byName(name: String): Workload = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(s"unknown workload $name; known: ${all.map(_.name)}"))

  val ShufflePartitions = 64

  /** The session every run uses: the settings of the repository's jobs,
    * pinned to `cores` threads, with all scratch files under `workDir`.
    */
  def session(cores: Int, workDir: String): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("zeroed-benchmark")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", value = false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  /** Generate, cache and count the workload's dataset. */
  def dataset(spark: SparkSession, w: Workload, seeds: Seeds): EDataset = {
    val ds = Datasets.generate(spark, Datasets.byName(w.dataset).copy(seed = seeds.spec), w.scale)
    ds.dirty.cache(); ds.mask.cache()
    ds.dirty.count(); ds.mask.count()
    ds
  }

  def config(seeds: Seeds): ZeroEDConfig = ZeroEDConfig(seed = seeds.config)
}

/** What a pass produced; the correctness gate compares these exactly. */
final case class ZeroEDOut(f1: Double, tokens: Long, nSampled: Int)
final case class BaselinesOut(f1: Map[String, Double], fmedTokens: Long) {
  def meanF1: Double = f1.values.sum / f1.size
}

object Baselines {
  val methods: Seq[String] = Seq("dboost", "nadeef", "katara", "activeclean", "raha", "fm_ed")

  /** Run one baseline's `detect`; FM_ED also reports its tokens. */
  def detect(spark: SparkSession, ds: EDataset, method: String): (DataFrame, Long) =
    method match {
      case "dboost"      => (DBoost.detect(spark, ds), 0L)
      case "nadeef"      => (Nadeef.detect(spark, ds), 0L)
      case "katara"      => (Katara.detect(spark, ds), 0L)
      case "activeclean" => (ActiveClean.detect(spark, ds), 0L)
      case "raha"        => (Raha.detect(spark, ds), 0L)
      case "fm_ed" =>
        val r = FMED.detect(spark, ds)
        (r.pred, r.inputTokens + r.outputTokens)
    }
}

/** The timed passes, with tracing off. */
object Untraced {

  /** One `ZeroED.run`, called directly: `Runner.zeroed` caches results by
    * configuration and would time a map lookup.
    */
  def zeroed(spark: SparkSession, ds: EDataset, seeds: Seeds): ZeroEDOut = {
    val r = ZeroED.run(spark, ds, Workloads.config(seeds))
    ZeroEDOut(r.metrics.f1, r.inputTokens + r.outputTokens, r.nSampledCells)
  }

  def baselines(spark: SparkSession, ds: EDataset): BaselinesOut = {
    var tokens = 0L
    val f1 = Baselines.methods.map { m =>
      val (pred, t) = Baselines.detect(spark, ds, m)
      tokens += t
      val prf = Metrics.evaluate(pred, ds.mask)
      pred.unpersist()
      m -> prf.f1
    }.toMap
    BaselinesOut(f1, tokens)
  }
}
