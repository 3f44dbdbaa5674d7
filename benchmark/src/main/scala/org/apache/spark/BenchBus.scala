package org.apache.spark

/** Access to the listener bus, which Spark keeps package-private.
  *
  * Listener events are delivered asynchronously; a span must not close
  * before the bench's listener has seen the end of every job it started.
  */
object BenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
