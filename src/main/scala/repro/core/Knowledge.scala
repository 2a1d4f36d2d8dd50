package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.Schema._
import repro.indoor.Dsm

/** Knowledge construction (Complementing layer, step 1).
  *
  * "Aggregates the mobility semantics already annotated to build the prior
  * mobility knowledge that captures the transition probabilities between
  * semantic regions." A Spark aggregation over all devices' annotated
  * sequences yields, per region: outgoing transition counts, dwell
  * statistics and the event distribution. The compact result is collected
  * into a serializable [[KnowledgeModel]] that the Complementor broadcasts
  * for per-gap MAP inference.
  */
object Knowledge {

  /** Prior mobility knowledge over semantic regions.
    *
    * @param transitions observed counts regionId → regionId over
    *                    consecutive annotated semantics
    * @param dwell       mean annotated duration (s) per regionId
    * @param stayShare   fraction of a region's semantics annotated `stay`
    * @param alpha       Laplace smoothing mass for unseen transitions
    */
  final case class KnowledgeModel(transitions: Map[(String, String), Long],
                                  dwell: Map[String, Double],
                                  stayShare: Map[String, Double],
                                  alpha: Double = 0.5) extends Serializable {

    /** Smoothed P(to | from) restricted to `candidates` (the topologically
      * reachable successors — a transition must respect the space). */
    def prob(from: String, to: String, candidates: Set[String]): Double = {
      val denom = candidates.toSeq.map(c => transitions.getOrElse((from, c), 0L)).sum +
        alpha * candidates.size
      (transitions.getOrElse((from, to), 0L) + alpha) / denom
    }

    /** Expected dwell in a region (s); global default when unseen. */
    def expectedDwell(regionId: String): Double = dwell.getOrElse(regionId, defaultDwell)

    @transient private lazy val defaultDwell: Double =
      if (dwell.isEmpty) 30.0 else dwell.values.sum / dwell.size

    /** Most likely event annotation for a semantics inferred in a region. */
    def dominantEvent(regionId: String): String =
      if (stayShare.getOrElse(regionId, 0.0) >= 0.5) Stay else PassBy
  }

  /** Transition counts between consecutive semantics, as a DataFrame
    * (from_region, to_region, n). Window + aggregation; SQL-expressible,
    * so the DuckDB oracle can verify it. Self-transitions are excluded
    * (merged semantics never repeat a region back-to-back, and a
    * transition models movement between regions).
    */
  def transitionCounts(semantics: DataFrame): DataFrame = {
    val w = Window.partitionBy("deviceId").orderBy("seqNo")
    semantics
      .withColumn("to_region", lead("regionId", 1).over(w))
      .filter(col("to_region").isNotNull && col("to_region") =!= col("regionId"))
      .groupBy(col("regionId").as("from_region"), col("to_region"))
      .agg(count(lit(1)).as("n"))
  }

  /** Per-region dwell mean and stay share (event distribution). */
  def regionStats(semantics: DataFrame): DataFrame =
    semantics.groupBy(col("regionId"))
      .agg(avg(col("tEnd") - col("tStart")).as("mean_dwell"),
           avg(when(col("event") === Stay, 1.0).otherwise(0.0)).as("stay_share"))

  /** Build the broadcastable model from annotated semantics. */
  def build(spark: SparkSession, semantics: Dataset[Semantic], alpha: Double = 0.5): KnowledgeModel = {
    val df = semantics.toDF()
    val trans = transitionCounts(df).collect()
      .map(r => (r.getString(0), r.getString(1)) -> r.getLong(2)).toMap
    val stats = regionStats(df).collect()
      .map(r => r.getString(0) -> (r.getDouble(1), r.getDouble(2))).toMap
    KnowledgeModel(trans, stats.view.mapValues(_._1).toMap,
                   stats.view.mapValues(_._2).toMap, alpha)
  }
}
