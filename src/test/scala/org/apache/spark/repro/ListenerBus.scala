package org.apache.spark.repro

import org.apache.spark.SparkContext

/** Reaches Spark's listener bus, which is private to the `org.apache.spark`
  * package, so a test or bench can wait for event delivery instead of
  * sleeping.
  */
object ListenerBus {

  /** Blocks until every event posted so far has reached every listener. */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
