package repro

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Runs `body` with `listener` registered and returns once the listener has
    * seen every event `body` caused. Listener events arrive in order, so once
    * a marker job started after `body` is seen, every earlier job, stage and
    * task event has been seen too.
    */
  def listening[A](listener: SparkListener)(body: => A): A = {
    val sc = spark.sparkContext
    val drained = new CountDownLatch(1)
    val marker = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty("spark.jobGroup.id") == "drain"))
          drained.countDown()
    }
    sc.addSparkListener(listener)
    sc.addSparkListener(marker)
    try {
      val out = body
      sc.setJobGroup("drain", "drain")
      sc.parallelize(Seq(1), 1).count()
      assert(drained.await(30, TimeUnit.SECONDS), "listener did not drain")
      out
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(marker)
      sc.removeSparkListener(listener)
    }
  }

  /** The number of Spark jobs `body` starts (the drain job of `listening`
    * is not counted).
    */
  def jobsStarted(body: => Any): Int = {
    val jobs = new AtomicInteger
    listening(new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (!Option(e.properties).exists(_.getProperty("spark.jobGroup.id") == "drain"))
          jobs.incrementAndGet()
    })(body)
    jobs.get
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
