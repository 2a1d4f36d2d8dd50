package tripsbench

import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Attributes Spark jobs, stages and task metrics to the layer that ran
  * them. The benchmark runs each layer under a job group named after it;
  * jobs without a group count as [[Other]]. */
final class LayerListener extends SparkListener {

  final class Totals {
    var jobs = 0
    var stages = 0
    var tasks = 0
    var shuffleWriteBytes = 0L
    var shuffleRecords = 0L
    var cpuNs = 0L
    var gcMs = 0L
    val taskRunMs: mutable.ArrayBuffer[Long] = mutable.ArrayBuffer.empty

    /** Slowest task over the median task (1 = perfectly even). */
    def taskSkew: Double =
      if (taskRunMs.isEmpty) 0.0
      else taskRunMs.max / math.max(1.0, Report.median(taskRunMs.map(_.toDouble).toSeq))
  }

  private val byLayer = mutable.Map.empty[String, Totals]
  private val stageLayer = mutable.Map.empty[Int, String]

  private def totals(layer: String): Totals = byLayer.getOrElseUpdate(layer, new Totals)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val layer = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .getOrElse(LayerListener.Other)
    totals(layer).jobs += 1
    e.stageIds.foreach(s => stageLayer(s) = layer)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    totals(stageLayer.getOrElse(e.stageInfo.stageId, LayerListener.Other)).stages += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val t = totals(stageLayer.getOrElse(e.stageId, LayerListener.Other))
    t.tasks += 1
    Option(e.taskMetrics).foreach { m =>
      t.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      t.shuffleRecords += m.shuffleWriteMetrics.recordsWritten
      t.cpuNs += m.executorCpuTime
      t.gcMs += m.jvmGCTime
      t.taskRunMs += m.executorRunTime
    }
  }

  /** Figures per layer once every event of the finished jobs arrived. */
  def snapshot(sc: SparkContext): Map[String, Totals] = {
    ListenerBusDrain(sc)
    synchronized(byLayer.toMap)
  }
}

object LayerListener {
  val Other = "other"

  /** Runs `f` with its Spark jobs attributed to `layer`. */
  def inLayer[A](sc: SparkContext, layer: String)(f: => A): A = {
    sc.setJobGroup(layer, layer)
    try f finally sc.clearJobGroup()
  }
}
