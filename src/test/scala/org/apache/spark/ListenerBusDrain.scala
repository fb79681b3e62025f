package org.apache.spark

/** Waits until the listener bus has delivered every event posted so far.
  * The bus is package-private, hence this file's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
