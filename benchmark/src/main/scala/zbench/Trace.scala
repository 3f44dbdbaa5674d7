package zbench

import java.lang.management.{ManagementFactory, MemoryType}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData

import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.{BenchBus, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Process-wide counters read at span boundaries. In local mode the driver
  * and the executors share one JVM, so these cover both.
  */
object Jvm {
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  def gcMs: Long = gcBeans.map(b => math.max(0L, b.getCollectionTime)).sum
  def cpuNs: Long = os.getProcessCpuTime
}

/** The largest heap in use right after any GC, taken from GC notifications. */
final class HeapWatch extends NotificationListener {
  private val heapPools: Set[String] = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  private val emitters = ManagementFactory.getGarbageCollectorMXBeans.asScala.collect {
    case e: NotificationEmitter => e
  }
  private var peak = 0L
  emitters.foreach(_.addNotificationListener(this, null, null))

  def handleNotification(n: Notification, handback: AnyRef): Unit =
    if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
      val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
      val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
        .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
      synchronized { peak = math.max(peak, used) }
    }

  def reset(): Unit = synchronized { peak = 0L }
  def peakMb: Double = {
    val bytes = synchronized(peak)
    bytes / 1048576.0
  }
  def close(): Unit = emitters.foreach(_.removeNotificationListener(this))
}

/** Spark jobs, executor run time and shuffle bytes, tallied by job group. */
final class JobLedger extends SparkListener {
  final class Tally { var jobs = 0; var taskMs = 0L; var shuffleBytes = 0L }

  private val tallies = mutable.HashMap.empty[String, Tally]
  private val stageGroup = mutable.HashMap.empty[Int, String]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .getOrElse("")
    tallies.getOrElseUpdate(group, new Tally).jobs += 1
    e.stageIds.foreach(stageGroup(_) = group)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (group <- stageGroup.get(e.stageId); m <- Option(e.taskMetrics)) {
      val t = tallies.getOrElseUpdate(group, new Tally)
      t.taskMs += m.executorRunTime
      t.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Remove and return the tally of one group. */
  def take(group: String): Tally = synchronized(tallies.remove(group).getOrElse(new Tally))
}

/** One closed span. Wall, GC and CPU time cover the whole interval; jobs,
  * task time and shuffle bytes are those of the span's own job group, so
  * a parent's figures exclude its children's.
  */
final case class Span(name: String, parent: Option[String], wallS: Double, gcS: Double,
                      cpuS: Double, jobs: Int, taskS: Double, shuffleMb: Double)

/** Records a span around each layer call. Spark jobs are attributed with
  * one job group per span; a span closes only after the listener bus has
  * delivered every event of the jobs it started.
  */
final class Tracer(sc: SparkContext) {
  private val ledger = new JobLedger
  private var stack = List.empty[String]
  val spans = mutable.ArrayBuffer.empty[Span]
  sc.addSparkListener(ledger)

  def span[T](name: String)(body: => T): T = {
    BenchBus.drain(sc)
    val parent = stack.headOption
    stack = name :: stack
    sc.setJobGroup(group(name), name)
    val gc0 = Jvm.gcMs; val cpu0 = Jvm.cpuNs; val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime(); val gc1 = Jvm.gcMs; val cpu1 = Jvm.cpuNs
      BenchBus.drain(sc)
      stack = stack.tail
      parent match {
        case Some(p) => sc.setJobGroup(group(p), p)
        case None    => sc.clearJobGroup()
      }
      val t = ledger.take(group(name))
      spans += Span(name, parent, (t1 - t0) / 1e9, (gc1 - gc0) / 1e3, (cpu1 - cpu0) / 1e9,
                    t.jobs, t.taskMs / 1e3, t.shuffleBytes / 1048576.0)
    }
  }

  def close(): Unit = sc.removeSparkListener(ledger)

  private def group(name: String): String = s"zbench:$name"
}
