package zbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import org.apache.spark.sql.SparkSession
import repro.data.{Datasets, EDataset}

import scala.collection.immutable.ListMap
import scala.collection.mutable.ArrayBuffer
import scala.util.{Failure, Success, Try}

/** One benchmark process. It writes one JSON record to `--out`; `run.py`
  * turns records into the benchmark's result line.
  *
  * `timed` mode sets up `SetupReps` times (SparkSession start plus the
  * workload's dataset), makes the workload's untimed warm-up runs, then
  * times runs of the workload's pass, with tracing off, until `--seconds`
  * have passed (at least one). `traced` mode sets up once, makes the same
  * warm-up runs and one timed run, then runs the traced passes.
  *
  * Usage: zbench.Main --workload W --mode timed|traced --seconds N
  *                    --cores C --work-dir DIR --out FILE [--seed S]
  */
object Main {
  val SetupReps = 3

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).map { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val w = Workloads.byName(opts("workload"))
    val seeds = Seeds.of(opts.get("seed").map(_.toLong))
    val cores = opts("cores").toInt
    require(cores >= 1 && cores <= Runtime.getRuntime.availableProcessors,
            s"--cores $cores outside 1..${Runtime.getRuntime.availableProcessors}")
    val workDir = opts("work-dir")
    val record = opts("mode") match {
      case "timed"  => timed(w, seeds, opts("seconds").toDouble, cores, workDir)
      case "traced" => traced(w, seeds, cores, workDir)
      case other    => throw new IllegalArgumentException(s"unknown mode $other")
    }
    val env = ListMap[String, Any](
      "master" -> s"local[$cores]", "cores" -> cores,
      "shuffle_partitions" -> Workloads.ShufflePartitions,
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / 1048576,
      "jdk" -> s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}",
      "spark" -> org.apache.spark.SPARK_VERSION)
    val full = ListMap[String, Any]("workload" -> w.name, "seed" -> opts.get("seed").map(_.toLong),
                                    "mode" -> opts("mode"), "env" -> env) ++ record
    Files.write(Paths.get(opts("out")), Json(full).getBytes(StandardCharsets.UTF_8))
  }

  private def timed(w: Workload, seeds: Seeds, seconds: Double, cores: Int,
                    workDir: String): ListMap[String, Any] = {
    val setupS = ArrayBuffer.empty[Double]
    var spark: SparkSession = null
    var ds: EDataset = null
    for (_ <- 1 to SetupReps) {
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      spark = Workloads.session(cores, workDir)
      ds = Workloads.dataset(spark, w, seeds)
      setupS += (System.nanoTime() - t0) / 1e9
    }
    val runs = runPasses(w, seeds, spark, ds, seconds)
    spark.stop()
    ListMap("setup_s" -> setupS.toSeq, "runs" -> runs)
  }

  /** The warm-up runs, then timed runs until `seconds` have passed (at
    * least one). Every run passes the correctness gate or is recorded as
    * failed; a run that throws ends the set.
    */
  private def runPasses(w: Workload, seeds: Seeds, spark: SparkSession, ds: EDataset,
                        seconds: Double): Seq[ListMap[String, Any]] = {
    val heap = new HeapWatch
    val runs = ArrayBuffer.empty[ListMap[String, Any]]
    var first: Option[Any] = None
    def run(warmup: Boolean): Boolean = {
      heap.reset()
      val t0 = System.nanoTime()
      val out = Try {
        if (w.zeroed) Untraced.zeroed(spark, ds, seeds) else Untraced.baselines(spark, ds)
      }
      val wall = (System.nanoTime() - t0) / 1e9
      if (first.isEmpty) first = out.toOption
      val error = out match {
        case Failure(e) => Some(s"threw ${e.getClass.getName}: ${e.getMessage}")
        case Success(o) => gate(w, o, first.get)
      }
      runs += ListMap("warmup" -> warmup, "run_s" -> wall, "heap_peak_mb" -> heap.peakMb,
                      "error" -> error) ++ out.toOption.map(describe).getOrElse(ListMap.empty)
      out.isSuccess
    }
    if ((1 to w.warmups).forall(_ => run(warmup = true))) {
      val start = System.nanoTime()
      while (run(warmup = false) && (System.nanoTime() - start) / 1e9 < seconds) {}
    }
    heap.close()
    runs.toSeq
  }

  /** The correctness gate of one run: the same outputs as the set's first
    * run, and the workload's own checks.
    */
  private def gate(w: Workload, out: Any, first: Any): Option[String] = out match {
    case _ if out != first => Some(s"outputs $out differ from the first run's $first")
    case z: ZeroEDOut if w.f1Floor.exists(z.f1 <= _) =>
      Some(s"f1 ${z.f1} not above ${w.f1Floor.get}")
    case b: BaselinesOut if b.fmedTokens <= 0 => Some("FM_ED metered no tokens")
    case b: BaselinesOut if Datasets.byName(w.dataset).kb.isEmpty && b.f1("katara") != 0.0 =>
      Some(s"Katara has no knowledge base for ${w.dataset} but scored F1 ${b.f1("katara")}")
    case _ => None
  }

  private def describe(out: Any): ListMap[String, Any] = out match {
    case z: ZeroEDOut =>
      ListMap("f1" -> z.f1, "llm_tokens" -> z.tokens, "n_sampled" -> z.nSampled)
    case b: BaselinesOut =>
      ListMap("f1" -> b.meanF1, "llm_tokens" -> b.fmedTokens,
              "f1_by_method" -> ListMap(b.f1.toSeq.sortBy(_._1): _*))
  }

  /** Set up once inside a `data` span; make the warm-up runs and one timed
    * run untraced (the reference for trace fidelity and overhead); then run
    * the workload's own pass traced, and the other pipeline's pass on the
    * same dataset, so that every layer is measured on every workload. Only
    * the own pass's evaluation is reported as the `metrics` layer.
    */
  private def traced(w: Workload, seeds: Seeds, cores: Int,
                     workDir: String): ListMap[String, Any] = {
    val spark = Workloads.session(cores, workDir)
    val setupTr = new Tracer(spark.sparkContext)
    val ds = setupTr.span("data")(Workloads.dataset(spark, w, seeds))
    setupTr.close()
    val runs = runPasses(w, seeds, spark, ds, seconds = 0)

    val tr = new Tracer(spark.sparkContext)
    val passes = new Traced(spark, tr)
    def zeroed(metrics: String) = passes.zeroed(ds, seeds, metrics)
    def baselines(metrics: String) = {
      val t0 = System.nanoTime()
      val out = passes.baselines(ds, metrics)
      (out, (System.nanoTime() - t0) / 1e9)
    }
    val side = "side.metrics"
    val (z, (b, baselinesWall)) =
      if (w.zeroed) { val z = zeroed("metrics"); (z, baselines(side)) }
      else { val b = baselines("metrics"); (zeroed(side), b) }
    tr.close()
    spark.stop()

    val spans = setupTr.spans.toSeq ++ tr.spans
    val ownWall = if (w.zeroed) spans.find(_.name == "zeroed").get.wallS else baselinesWall
    ListMap("setup_s" -> Seq(setupTr.spans.head.wallS), "runs" -> runs,
            "outputs" -> describe(if (w.zeroed) z else b),
            "traced_wall_s" -> ownWall,
            "layers" -> layers(spans, passes.counts.toMap, cores))
  }

  /** Per-layer metrics from the spans and counts of a traced process. The
    * root `zeroed` span reports the whole run: all its jobs, task and GC
    * time, plus its self time (the glue left in `ZeroED.run`).
    */
  private def layers(spans: Seq[Span], counts: Map[String, Double],
                     cores: Int): ListMap[String, Double] = {
    val out = ListMap.newBuilder[String, Double]
    val children = spans.filter(_.parent.contains("zeroed"))
    spans.filterNot(_.name.startsWith("side.")).foreach { s =>
      val inRun = if (s.name == "zeroed") children :+ s else Seq(s)
      out ++= Seq(s"${s.name}.wall_s" -> s.wallS,
                  s"${s.name}.jobs" -> inRun.map(_.jobs).sum.toDouble,
                  s"${s.name}.task_s" -> inRun.map(_.taskS).sum,
                  s"${s.name}.gc_s" -> s.gcS,
                  s"${s.name}.shuffle_mb" -> inRun.map(_.shuffleMb).sum)
    }
    val root = spans.find(_.name == "zeroed").get
    out += "zeroed.self_s" -> (root.wallS - children.map(_.wallS).sum)
    val sampling = spans.find(_.name == "sampling").get
    out += "sampling.cpu_s" -> sampling.cpuS
    out += "sampling.parallel_use" -> sampling.cpuS / (sampling.wallS * cores)
    out ++= counts
    out.result()
  }
}

/** A minimal JSON writer for records: maps, sequences, options, strings,
  * booleans and numbers (doubles with all their digits).
  */
object Json {
  def apply(v: Any): String = v match {
    case null | None => "null"
    case Some(x)     => apply(x)
    case s: String   => quote(s)
    case d: Double   => if (d.isNaN || d.isInfinite) "null" else d.toString
    case b: Boolean  => b.toString
    case n: Int      => n.toString
    case n: Long     => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case s: Iterable[_] => s.map(apply).mkString("[", ",", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String = s.flatMap {
    case '"'  => "\\\""
    case '\\' => "\\\\"
    case c if c < ' ' => f"\\u${c.toInt}%04x"
    case c    => c.toString
  }.mkString("\"", "", "\"")
}
