package repro.core

import org.apache.spark.sql.SparkSession
import repro.graph.{GraphData, SocialGraph}
import repro.graph.SocialGraph.GraphFrames
import repro.index.{Precompute, TreeIndex}

/** End-to-end wiring of the two-phase framework (paper Alg. 1): offline
  * pre-computation + index construction, then online query answering.
  * Used by every job and bench.
  */
object Pipeline {

  /** A fully-built offline state, ready to answer online queries. */
  final case class Built(
      g: GraphData,
      index: TreeIndex.Node,
      thetaGrid: Array[Double],
      rMax: Int,
      offlineMillis: Long) {

    /** Answer one TopL-ICDE query (Alg. 3). */
    def topL(q: Query, cfg: PruningConfig = PruningConfig()): TopLResult =
      TopLICDE.run(g, index, thetaGrid, q, cfg)

    /** Answer one DTopL-ICDE query (Alg. 4): top-(nL) via Alg. 3, then
      * lazy-greedy selection.
      */
    def dTopL(q: Query, n: Int): DTopL.DResult = {
      val cands = topL(q.copy(L = n * q.L)).communities.toIndexedSeq
      DTopL.greedyWP(cands, q.L)
    }
  }

  /** Run the offline phase: CSR collect, per-vertex aggregates (incident
    * supports by CSR intersection, then the partition-parallel Alg. 2),
    * then index construction. Each Spark job of the build is labelled
    * with its phase ("build: csr", "build: precompute").
    */
  def build(
      spark: SparkSession,
      gf: GraphFrames,
      rMax: Int = 3,
      thetaGrid: Array[Double] = Precompute.DefaultThetaGrid,
      fanout: Int = 32): Built = {
    val t0 = System.nanoTime()
    val g = labelJobs(spark, "build: csr")(SocialGraph.toGraphData(gf))
    val rows = labelJobs(spark, "build: precompute")(Precompute.offline(spark, g, rMax, thetaGrid))
    val index = TreeIndex.build(rows, fanout)
    Built(g, index, thetaGrid, rMax, (System.nanoTime() - t0) / 1000000L)
  }

  /** Run `f` with `label` as the description of the Spark jobs it starts,
    * clearing the description afterwards.
    */
  private def labelJobs[A](spark: SparkSession, label: String)(f: => A): A = {
    spark.sparkContext.setJobDescription(label)
    try f
    finally spark.sparkContext.setJobDescription(null)
  }
}
