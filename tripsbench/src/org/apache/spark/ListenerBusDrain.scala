package org.apache.spark

/** Waits until every posted listener event has been delivered, so that the
  * benchmark's listener has seen all task ends of the jobs that ran. The
  * listener bus is private to Spark, hence this object's package. */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
