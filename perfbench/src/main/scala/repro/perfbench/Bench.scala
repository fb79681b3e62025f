package repro.perfbench

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel

/** The repository benchmark: one workload per run, in one local Spark
  * session, as a single-client closed loop (each application run starts when
  * the previous one ends).
  *
  *   --workload lr-retailer|cart-retailer|rkmeans-favorita
  *   --seed n        data seed (`Retailer.tables` / `Favorita.tables`)
  *   --seconds s     how long the timed runs last
  *   --trace 0|1     0: end-to-end metrics; 1: per-layer metrics from a
  *                   traced replay
  *
  * The last line of standard output is one JSON object with the keys
  * correct, attempted, failed and metrics.
  */
object Bench {

  final case class Metric(name: String, unit: String)

  val EndToEnd: Seq[Metric] = Seq(
    Metric("app_s", "s"),
    Metric("setup_s", "s"),
    Metric("storage_peak_mb", "MB"),
  )

  val PerLayer: Seq[Metric] = Seq(
    Metric("data.base_rows", "count"),
    Metric("data.base_cached_mb", "MB"),
    Metric("viewgen.plan_s", "s"),
    Metric("viewgen.plans", "count"),
    Metric("viewgen.queries", "count"),
    Metric("viewgen.views_unmerged", "count"),
    Metric("viewgen.views_merged", "count"),
    Metric("viewgen.agg_columns", "count"),
    Metric("group.groups_s", "s"),
    Metric("group.groups", "count"),
    Metric("exec.run_s", "s"),
    Metric("exec.collect_s", "s"),
    Metric("exec.cleanup_s", "s"),
    Metric("exec.spark_jobs", "count"),
    Metric("exec.spark_stages", "count"),
    Metric("exec.spark_tasks", "count"),
    Metric("exec.failed_tasks", "count"),
    Metric("exec.stages_per_group", "ratio"),
    Metric("exec.shuffle_write_mb", "MB"),
    Metric("exec.shuffle_read_mb", "MB"),
    Metric("exec.task_busy_s", "s"),
    Metric("exec.core_idle_frac", "fraction"),
    Metric("exec.result_rows", "count"),
    Metric("linreg.assemble_s", "s"),
    Metric("linreg.bgd_s", "s"),
    Metric("linreg.sigma_dim", "count"),
    Metric("tree.node_batches", "count"),
    Metric("tree.nodestats_s", "s"),
    Metric("tree.split_s", "s"),
    Metric("rkmeans.proj_s", "s"),
    Metric("rkmeans.kmeans1d_s", "s"),
    Metric("rkmeans.augment_s", "s"),
    Metric("rkmeans.grid_s", "s"),
    Metric("rkmeans.kmeans_s", "s"),
    Metric("rkmeans.coreset_size", "count"),
    Metric("app_warmup_s", "s"),
    Metric("trace.overhead_frac", "fraction"),
    Metric("ref.sharedjoin_s", "s"),
    Metric("error_rate", "fraction"),
  )

  /** Local-mode cores; `local[*]` on the 4-core machine the figures in
    * perfbench/README.md come from, fixed here so runs compare.
    */
  val Cores = 4
  /** 4 rather than the test harness's 64: at this scale 64 partitions double
    * the run time through per-partition shuffle files (perfbench/README.md).
    */
  val ShufflePartitions = 4
  val Setups = 3
  val WarmupReps = 1

  final case class Options(workload: Workload, seed: Long, seconds: Double, trace: Boolean)

  final case class Result(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(Metric, Double)]) {
    def json: String = {
      val ms = metrics.map { case (m, v) =>
        s""""${m.name}": {"value": ${num(v)}, "unit": "${m.unit}"}"""
      }
      s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
    }
  }

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString

  def parse(args: Array[String]): Either[String, Options] = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val usage = "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>"
    for {
      name <- kv.get("workload").toRight(usage)
      w <- Workload.byName(name).toRight(s"unknown workload $name (${Workload.all.map(_.name).mkString(", ")})")
      seed <- kv.get("seed").flatMap(_.toLongOption).toRight(usage)
      seconds <- kv.get("seconds").flatMap(_.toDoubleOption).filter(_ > 0).toRight(usage)
      trace <- kv.get("trace").collect { case "0" => false; case "1" => true }.toRight(usage)
    } yield Options(w, seed, seconds, trace)
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args) match {
      case Right(o) => o
      case Left(msg) => System.err.println(msg); sys.exit(2)
    }
    val result = run(opts)
    println(result.json)
    System.out.flush()
    sys.exit(0)
  }

  def session(): SparkSession = {
    val scratch = new File(".bench_build").getAbsoluteFile
    SparkSession.builder
      .master(s"local[$Cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(scratch, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(scratch, "spark-warehouse").getPath)
      .getOrCreate()
  }

  private def log(msg: String): Unit = System.err.println(s"[perfbench] $msg")

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private val MB = 1024.0 * 1024.0

  /** A running session with generated, cached base relations. */
  final case class Setup(spark: SparkSession, counts: SparkCounts, data: Data, baseRows: Long)

  /** Session start, data generation and base-relation caching; with a tracer,
    * the data-layer calls run in spans.
    */
  def setUp(w: Workload, seed: Long, traced: Boolean): (Setup, Option[Tracer]) = {
    val spark = session()
    spark.sparkContext.setLogLevel("WARN")
    val counts = new SparkCounts(spark.sparkContext)
    val tr = if (traced) Some(new Tracer(counts)) else None
    def span[A](name: String)(body: => A): A = tr.fold(body)(_.span(name)(body))
    val (data, rows) = span("setup") {
      val data = span("data.tables")(w.generate(spark, seed))
      val rows = span("data.cache")(data.tables.values.toSeq.map(_.persist(StorageLevel.MEMORY_AND_DISK).count()).sum)
      (data, rows)
    }
    (Setup(spark, counts, data, rows), tr)
  }

  def run(opts: Options): Result = {
    val w = opts.workload
    // Set up several times and keep the last session; setup_s is the median.
    var current: Option[(Setup, Option[Tracer])] = None
    val setupTimes = (1 to Setups).map { i =>
      current.foreach(_._1.spark.stop())
      val t0 = System.nanoTime()
      current = Some(setUp(w, opts.seed, traced = opts.trace && i == Setups))
      seconds(t0)
    }
    val (Setup(spark, counts, data, baseRows), tracer) = current.get
    counts.drain()
    val baseCachedMb = counts.storageBytes / MB
    log(f"${w.name} seed=${opts.seed} setups=${setupTimes.map(t => f"$t%.3f").mkString(",")} s " +
      f"base rows=$baseRows cached=$baseCachedMb%.2f MB")

    try {
      // The first check, after the warm-up run, computes the reference.
      lazy val ref = {
        val t0 = System.nanoTime()
        val r = w.reference(spark, data)
        log(f"reference ${seconds(t0)}%.3f s")
        r
      }
      val attempts = new Attempts[w.Out](w.check(_, ref))
      import attempts.attempt
      val warm = (1 to WarmupReps).flatMap(_ => attempt(w.app(spark, data)))
      counts.drain()
      counts.resetPeak()
      val timed = mutable.ArrayBuffer.empty[(w.Out, Double)]
      val loop0 = System.nanoTime()
      var tries = 0
      while (tries == 0 || seconds(loop0) < opts.seconds) {
        tries += 1
        timed ++= attempt(w.app(spark, data))
      }
      counts.drain()
      val times = timed.map(_._2).toSeq
      val appS = if (times.nonEmpty) median(times) else seconds(loop0) / tries
      log(s"app runs: warm-up ${warm.map(t => f"${t._2}%.3f").mkString(",")} s, timed " +
        s"${times.map(t => f"$t%.3f").mkString(",")} s (n=${times.size}; " +
        s"${percentileNote(times.size)})")

      if (!opts.trace) {
        Result(attempts.failed == 0, attempts.attempted, attempts.failed, Seq(
          EndToEnd(0) -> appS,
          EndToEnd(1) -> median(setupTimes),
          EndToEnd(2) -> counts.peakStorageBytes / MB,
        ))
      } else {
        val tr = tracer.get
        val stagesBefore = counts.total.stages
        val replayed = tr.span("app")(attempt(w.replay(spark, data, tr)))
        val sameAsUntraced = (replayed.map(_._1), timed.lastOption.orElse(warm.lastOption).map(_._1)) match {
          case (Some(a), Some(b)) => w.sameModel(a, b)
          case _ => false
        }
        if (!sameAsUntraced) log("the traced replay did not reproduce the untraced model")
        w.baseline(data, ref, tr).foreach(errors => attempts.record(errors))
        val sharedJoinS = tr.spans.filter(_.name == "ref.sharedjoin").map(_.seconds).sum
        counts.drain()
        val layer = LayerMetrics(tr, counts, baseRows, baseCachedMb)
        val windowStages = counts.total.stages - stagesBefore
        val stagesOk = layer.spanStages == windowStages
        if (!stagesOk) log(s"per-span stages ${layer.spanStages} != listener total $windowStages")
        val appSpan = tr.spans.find(_.name == "app").get
        val extra = Map(
          "app_warmup_s" -> warm.headOption.map(_._2).getOrElse(Double.NaN),
          "trace.overhead_frac" -> (appSpan.seconds / appS - 1),
          "ref.sharedjoin_s" -> sharedJoinS,
          "error_rate" -> attempts.failed.toDouble / attempts.attempted,
        )
        val values = layer.values ++ extra
        TraceFile.write(new File(".bench_build/traces", s"${w.name}-seed${opts.seed}.json"), tr, counts)
        Result(attempts.failed == 0 && sameAsUntraced && stagesOk, attempts.attempted, attempts.failed,
          PerLayer.map(m => m -> values(m.name)))
      }
    } finally spark.stop()
  }

  /** The highest percentile with at least ten samples beyond it. */
  def percentileNote(n: Int): String =
    if (n < 11) "no percentile above the median has 10 samples beyond it"
    else f"p${100.0 * (n - 10) / n}%.0f is the highest percentile with 10 samples beyond it"
}

/** Application runs checked against the reference: a run that throws or
  * disagrees counts as failed.
  */
final class Attempts[O](check: O => Seq[String]) {
  var attempted = 0
  var failed = 0

  def record(errors: Seq[String]): Unit = {
    attempted += 1
    if (errors.nonEmpty) {
      failed += 1
      System.err.println(s"[perfbench] run $attempted disagrees with the reference: ${errors.mkString("; ")}")
    }
  }

  /** Runs `body`, checks its output; the output and its wall seconds unless it threw. */
  def attempt(body: => O): Option[(O, Double)] = {
    val t0 = System.nanoTime()
    try {
      val out = body
      val t = (System.nanoTime() - t0) / 1e9
      record(check(out))
      Some((out, t))
    } catch {
      case NonFatal(e) =>
        record(Seq(s"threw $e"))
        None
    }
  }
}

/** Per-layer metrics of the traced run, from its spans and the listener. */
final case class LayerMetrics(tr: Tracer, counts: SparkCounts, baseRows: Long, baseCachedMb: Double) {
  private val MB = 1024.0 * 1024.0
  private val byGroup = counts.byJobGroup
  private val app: Seq[Span] = {
    val root = tr.spans.find(_.name == "app").get
    tr.spans.filter(_.runId == root.runId)
  }
  private def secs(name: String): Double = app.filter(_.name == name).map(_.seconds).sum
  private def spark(spans: Seq[Span]): Counts =
    spans.flatMap(s => byGroup.get(tr.jobGroup(s.id))).foldLeft(Counts())(_ + _)

  /** Stages attributed to the spans after set-up: the traced replay and the
    * baseline. Each stage of that window belongs to exactly one span.
    */
  def spanStages: Long = spark(tr.spans.filterNot(_.runId == tr.spans.head.runId)).stages

  def values: Map[String, Double] = {
    val exec = app.filter(_.name.startsWith("exec."))
    val ex = spark(exec)
    val execWall = exec.map(_.seconds).sum
    val groups = tr.counter("group.groups")
    Map(
      "data.base_rows" -> baseRows.toDouble,
      "data.base_cached_mb" -> baseCachedMb,
      "viewgen.plan_s" -> secs("viewgen.plan"),
      "group.groups_s" -> secs("group.groups"),
      "exec.run_s" -> secs("exec.run"),
      "exec.collect_s" -> secs("exec.collect"),
      "exec.cleanup_s" -> secs("exec.cleanup"),
      "exec.spark_jobs" -> ex.jobs.toDouble,
      "exec.spark_stages" -> ex.stages.toDouble,
      "exec.spark_tasks" -> ex.tasks.toDouble,
      "exec.failed_tasks" -> ex.failedTasks.toDouble,
      "exec.stages_per_group" -> (if (groups > 0) ex.stages / groups else 0.0),
      "exec.shuffle_write_mb" -> ex.shuffleWriteBytes / MB,
      "exec.shuffle_read_mb" -> ex.shuffleReadBytes / MB,
      "exec.task_busy_s" -> ex.taskRunMs / 1000.0,
      "exec.core_idle_frac" -> (if (execWall > 0) 1 - ex.taskRunMs / 1000.0 / (execWall * Bench.Cores) else 0.0),
      "linreg.assemble_s" -> secs("linreg.assemble"),
      "linreg.bgd_s" -> secs("linreg.bgd"),
      "tree.nodestats_s" -> secs("tree.nodestats"),
      "tree.split_s" -> secs("tree.split"),
      "rkmeans.proj_s" -> secs("rkmeans.proj"),
      "rkmeans.kmeans1d_s" -> secs("rkmeans.kmeans1d"),
      "rkmeans.augment_s" -> secs("rkmeans.augment"),
      "rkmeans.grid_s" -> secs("rkmeans.grid"),
      "rkmeans.kmeans_s" -> secs("rkmeans.kmeans"),
    ) ++ Seq("viewgen.plans", "viewgen.queries", "viewgen.views_unmerged", "viewgen.views_merged",
      "viewgen.agg_columns", "group.groups", "exec.result_rows", "linreg.sigma_dim",
      "tree.node_batches", "rkmeans.coreset_size").map(n => n -> tr.counter(n))
  }
}

/** Writes the spans of a traced run, with self time and Spark counts. */
object TraceFile {
  def write(file: File, tr: Tracer, counts: SparkCounts): Unit = {
    val byGroup = counts.byJobGroup
    val t0 = tr.spans.map(_.startNs).min
    val lines = tr.spans.map { s =>
      val c = byGroup.getOrElse(tr.jobGroup(s.id), Counts())
      val parent = s.parent.fold("null")(_.toString)
      f"""  {"id": ${s.id}, "name": "${s.name}", "parent": $parent, "run": "${s.runId}", """ +
        f""""start_s": ${(s.startNs - t0) / 1e9}%.6f, "end_s": ${(s.endNs - t0) / 1e9}%.6f, """ +
        f""""self_s": ${tr.selfSeconds(s)}%.6f, "jobs": ${c.jobs}, "stages": ${c.stages}, """ +
        f""""tasks": ${c.tasks}, "failed_tasks": ${c.failedTasks}, """ +
        f""""shuffle_write_bytes": ${c.shuffleWriteBytes}, "shuffle_read_bytes": ${c.shuffleReadBytes}, """ +
        f""""task_run_ms": ${c.taskRunMs}, "block_updates": ${c.blockUpdates}}"""
    }
    file.getParentFile.mkdirs()
    Files.write(file.toPath, lines.mkString("[\n", ",\n", "\n]\n").getBytes(StandardCharsets.UTF_8))
  }
}
