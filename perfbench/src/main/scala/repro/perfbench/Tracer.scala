package repro.perfbench

import scala.collection.mutable

/** One traced call into a layer. Spans under one root share its `runId`. */
final case class Span(id: Int, name: String, parent: Option[Int], runId: String,
                      startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Records spans around the benchmark's calls into each layer and points
  * Spark's job group at the innermost open span, so `SparkCounts` attributes
  * every job, stage and task to the span that caused it. Spans are kept in
  * memory; counts measured at span boundaries (planned views, collected rows)
  * are added with `count`.
  */
final class Tracer(counts: SparkCounts) {
  private val sc = counts.sc
  private val finished = mutable.ArrayBuffer.empty[Span]
  private val counters = mutable.LinkedHashMap.empty[String, Double]
  private var open = List.empty[(Int, String)]
  private var nextId = 0

  def jobGroup(spanId: Int): String = s"span-$spanId"

  def span[A](name: String)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.headOption
    val runId = open.lastOption.map(r => s"run-${r._1}").getOrElse(s"run-$id")
    enter(jobGroup(id))
    open = (id, name) :: open
    val start = System.nanoTime()
    try body
    finally {
      val end = System.nanoTime()
      open = open.tail
      finished += Span(id, name, parent.map(_._1), runId, start, end)
      enter(parent.map(p => jobGroup(p._1)).getOrElse(""))
    }
  }

  private def enter(group: String): Unit = {
    counts.drain()
    counts.current = group
    if (group.isEmpty) sc.clearJobGroup() else sc.setJobGroup(group, group)
  }

  def count(name: String, value: Double): Unit =
    counters(name) = counters.getOrElse(name, 0.0) + value

  def counter(name: String): Double = counters.getOrElse(name, 0.0)

  def spans: Seq[Span] = finished.sortBy(_.id).toSeq

  /** A span's duration minus the time its child spans cover. */
  def selfSeconds(s: Span): Double =
    s.seconds - finished.filter(_.parent.contains(s.id)).map(_.seconds).sum
}
