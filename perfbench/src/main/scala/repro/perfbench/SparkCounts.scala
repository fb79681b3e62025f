package repro.perfbench

import scala.collection.mutable

import org.apache.spark.{ListenerBusDrain, SparkContext, Success}
import org.apache.spark.scheduler._
import org.apache.spark.storage.BlockId

/** Spark work attributed to one job group. */
final case class Counts(
    jobs: Long = 0,
    stages: Long = 0,
    tasks: Long = 0,
    failedTasks: Long = 0,
    shuffleWriteBytes: Long = 0,
    shuffleReadBytes: Long = 0,
    taskRunMs: Long = 0,
    blockUpdates: Long = 0,
) {
  def +(o: Counts): Counts = Counts(
    jobs + o.jobs, stages + o.stages, tasks + o.tasks, failedTasks + o.failedTasks,
    shuffleWriteBytes + o.shuffleWriteBytes, shuffleReadBytes + o.shuffleReadBytes,
    taskRunMs + o.taskRunMs, blockUpdates + o.blockUpdates)
}

/** Listener that keys jobs, stages, tasks, failed tasks, shuffle bytes,
  * executor run time and RDD block updates by job group, and tracks the
  * memory held by cached RDD blocks.
  *
  * Jobs carry their group in the `spark.jobGroup.id` property; stages and
  * tasks inherit the group of the job that submitted them. Block updates
  * carry no job, so they go to `current`, which the tracer sets only after
  * draining the bus.
  */
final class SparkCounts(val sc: SparkContext) extends SparkListener {
  private val byGroup = mutable.Map.empty[String, Counts]
  private val stageGroup = mutable.Map.empty[Int, String]
  private val rddBlockMem = mutable.Map.empty[BlockId, Long]
  private var storagePeak = 0L
  @volatile var current: String = ""

  sc.addSparkListener(this)

  /** Block until every event posted so far has reached this listener. */
  def drain(): Unit = ListenerBusDrain(sc)

  private def bump(group: String)(f: Counts => Counts): Unit =
    byGroup(group) = f(byGroup.getOrElse(group, Counts()))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    e.stageInfos.foreach(s => stageGroup(s.stageId) = group)
    bump(group)(c => c.copy(jobs = c.jobs + 1))
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    bump(stageGroup.getOrElse(e.stageInfo.stageId, ""))(c => c.copy(stages = c.stages + 1))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = Option(e.taskMetrics)
    bump(stageGroup.getOrElse(e.stageId, "")) { c =>
      c.copy(
        tasks = c.tasks + 1,
        failedTasks = c.failedTasks + (if (e.reason == Success) 0 else 1),
        shuffleWriteBytes = c.shuffleWriteBytes + m.fold(0L)(_.shuffleWriteMetrics.bytesWritten),
        shuffleReadBytes = c.shuffleReadBytes + m.fold(0L)(_.shuffleReadMetrics.totalBytesRead),
        taskRunMs = c.taskRunMs + m.fold(0L)(_.executorRunTime),
      )
    }
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val info = e.blockUpdatedInfo
    if (info.blockId.isRDD) {
      bump(current)(c => c.copy(blockUpdates = c.blockUpdates + 1))
      if (info.storageLevel.isValid && info.memSize > 0) rddBlockMem(info.blockId) = info.memSize
      else rddBlockMem.remove(info.blockId)
      storagePeak = math.max(storagePeak, storageBytes)
    }
  }

  // Unpersisting drops an RDD's blocks without a block update per block.
  override def onUnpersistRDD(e: SparkListenerUnpersistRDD): Unit = synchronized {
    rddBlockMem.keys.filter(_.asRDDId.exists(_.rddId == e.rddId)).toSeq.foreach(rddBlockMem.remove)
  }

  /** Bytes of memory held by cached RDD blocks now. */
  def storageBytes: Long = synchronized(rddBlockMem.values.sum)

  /** Peak of `storageBytes` since the last `resetPeak`. */
  def peakStorageBytes: Long = synchronized(storagePeak)

  def resetPeak(): Unit = synchronized { storagePeak = storageBytes }

  def byJobGroup: Map[String, Counts] = synchronized(byGroup.toMap)

  def total: Counts = byJobGroup.values.foldLeft(Counts())(_ + _)
}
