package repro.perfbench

import java.lang.management.ManagementFactory

import org.apache.spark.sql.SparkSession
import repro.core.{ATindex, DTopL, Pipeline, PruneStats, SeedExtract}
import repro.graph.SocialGraph
import repro.index.{Precompute, TreeIndex}
import repro.influence.MIA

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random

import Harness.{log, seconds, time}

/** The traced run: the per-layer metrics. Each layer is timed from outside,
  * around the public entry point of the module it is named after.
  */
object Traced {

  /** Loop queries whose counters are averaged; the traced half runs at least
    * this many, so the counters are a fixed prefix of the stream and repeat
    * exactly.
    */
  val CounterQueries = 20
  /** Stream queries whose every keyword-matching center is extracted and scored. */
  val KernelQueries = 2
  /** Vertices whose precompute is timed one at a time. */
  val VertexSample = 200
  /** Stream queries turned into DTopL queries on TopL workloads. */
  val DTopLSample = 3

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  private def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  /** What one traced query reports besides its answer. */
  final case class Row(stats: PruneStats, retrieveNs: Long, greedyNs: Long, evals: Long, slots: Long, allocBytes: Long)

  /** One query through the public entry points, split where Built.dTopL
    * splits: Alg. 3 retrieval, then Greedy_WP.
    */
  def traced(built: Pipeline.Built, bq: BenchQuery): (Answer, Row) = {
    val alloc0 = threads.getCurrentThreadAllocatedBytes
    if (bq.isDTopL) {
      val (t, retrieveNs) = time(Harness.retrieval(built, bq).result)
      val (d, greedyNs) = time(DTopL.greedyWP(t.communities.toIndexedSeq, bq.q.L))
      val row = Row(t.stats, retrieveNs, greedyNs, d.incrementEvals, t.communities.length.toLong * bq.q.L,
        threads.getCurrentThreadAllocatedBytes - alloc0)
      (DTopLAnswer(d), row)
    } else {
      val r = built.topL(bq.q)
      (TopLAnswer(r), Row(r.stats, 0L, 0L, 0L, 0L, threads.getCurrentThreadAllocatedBytes - alloc0))
    }
  }

  def nodes(n: TreeIndex.Node): Int = n match {
    case _: TreeIndex.Leaf => 1
    case TreeIndex.Inner(_, cs) => 1 + cs.map(nodes).sum
  }

  def run(spark: SparkSession, w: Workload, seed: Long, budgetNanos: Long, n: Long): Report = {
    val (gf, genNs) = time(Harness.inputs(spark, w, n))
    val warmBuildNs = Harness.warmBuild(spark, w)
    log("inputs and warm-up build done")

    // The offline layers one by one, in the order Pipeline.build runs them.
    val (g, csrNs) = time(SocialGraph.toGraphData(gf))
    val (inc, supportNs) = time(Precompute.incidentMaxSupportArray(spark, gf.edges, g.n))
    val bcG = spark.sparkContext.broadcast(g)
    val bcInc = spark.sparkContext.broadcast(inc)
    val (rows, precomputeNs) = time(
      Precompute.run(spark, bcG, bcInc, Workloads.RMax, Workloads.ThetaGrid).collect())
    bcG.destroy()
    bcInc.destroy()
    val (index, treeNs) = time(TreeIndex.build(rows))
    val (_, decompNs) = time(ATindex.offline(g))
    val sample = new Random(seed).shuffle((0 until g.n).toVector).take(VertexSample)
    val (_, vertexNs) = time(sample.foreach(Precompute.localVertexAggs(g, inc, _, Workloads.RMax, Workloads.ThetaGrid)))
    val ballMean = sample.map(g.hopBall(_, Workloads.RMax)._1.length.toDouble).sum / sample.length

    log("offline layers done")
    val built = Harness.build(spark, gf)
    val (warmN, warmNs) = Harness.warmQueries(built, w, seed)

    // Tracing overhead: the same stream, untraced then traced.
    val (plain, _) = Harness.loop(w.stream(seed), budgetNanos / 2)(Harness.execute(built, _))
    val rowsOut = mutable.ArrayBuffer[Row]()
    val gc0 = gcMillis()
    val (recs, _) = Harness.loop(w.stream(seed), budgetNanos / 2, CounterQueries) { bq =>
      val (a, row) = traced(built, bq)
      rowsOut += row
      a
    }
    val gcMs = (gcMillis() - gc0).toDouble
    // compared over the queries both halves ran
    val common = math.min(plain.length, recs.length)
    def p50(rs: Seq[Record]) = Stats.median(rs.take(common).map(_.nanos / 1e6))
    val tracedP50 = p50(recs)
    val overheadMs = tracedP50 - p50(plain)

    log("query loops done")
    val counted = rowsOut.take(CounterQueries).map(_.stats)
    def mean(f: PruneStats => Long): Double = counted.map(f).sum.toDouble / counted.length
    val refined = counted.map(_.refined).sum.toDouble
    // refined centers whose seed was new and therefore scored by MIA
    val scored = mean(s => s.refined - s.duplicates - s.noCommunity)

    // Seed extraction and MIA over every keyword-matching center of a fixed
    // sample of queries: the scan BruteForce runs.
    var extractNs, calls, found, seedSize, cppNs, toMapNs, ginf = 0L
    w.stream(seed).take(KernelQueries).foreach { bq =>
      val q = bq.q
      var v = 0
      while (v < g.n) {
        if (g.matchesQuery(v, q.keywords)) {
          val (s, ns) = time(SeedExtract.extract(g, v, q.r, q.k, q.keywords))
          extractNs += ns
          calls += 1
          s.foreach { community =>
            found += 1
            seedSize += community.vertices.length
            val (cpp, cNs) = time(MIA.influencedCpp(g, community.vertices, q.theta))
            val (_, mNs) = time(cpp.toMap)
            cppNs += cNs
            toMapNs += mNs
            ginf += cpp.size
          }
        }
        v += 1
      }
    }
    val extractUs = extractNs / 1e3 / math.max(calls, 1)
    val cppUs = cppNs / 1e3 / math.max(found, 1)

    // DTopL split: the timed stream on a DTopL workload, else a fixed sample
    // of the stream's queries asked as DTopL queries.
    val dRows =
      if (w.stream(seed).next().isDTopL) rowsOut.take(CounterQueries).toSeq
      else w.stream(seed).take(DTopLSample).map(bq => traced(built, bq.copy(n = Workloads.DTopLN))._2).toSeq

    log("kernel and DTopL samples done")
    val failures = Harness.gate(spark, built, plain ++ recs, Harness.bruteSample(plain.length + recs.length, seed))
    log("gate done")
    Harness.release(gf)

    val values = Map[String, Double](
      "graph.gen_s" -> seconds(genNs),
      "graph.csr_s" -> seconds(csrNs),
      "graph.vertices" -> g.n,
      "graph.edges" -> g.numUndirectedEdges,
      "truss.support_s" -> seconds(supportNs),
      "truss.decomp_s" -> seconds(decompNs),
      "precompute.s" -> seconds(precomputeNs),
      "precompute.vertex_us" -> vertexNs / 1e3 / sample.length,
      "precompute.ball_mean" -> ballMean,
      "index.tree_s" -> seconds(treeNs),
      "index.nodes" -> nodes(index),
      "index.height" -> TreeIndex.height(index),
      "topl.refined" -> mean(_.refined),
      "topl.pruned_keyword" -> mean(s => s.entriesKeywordPruned + s.vertexKeywordPruned),
      "topl.pruned_support" -> mean(s => s.entriesSupportPruned + s.vertexSupportPruned),
      "topl.pruned_score" -> mean(s => s.entriesScorePruned + s.vertexScorePruned),
      "topl.heap_terminated" -> mean(_.heapTerminated),
      "topl.duplicates" -> mean(_.duplicates),
      "topl.no_community" -> mean(_.noCommunity),
      "topl.useful_ratio" -> (if (refined > 0) scored * counted.length / refined else 0.0),
      "topl.refined_frac" -> mean(_.refined) / g.n,
      "seed.extract_us" -> extractUs,
      "seed.found_ratio" -> found.toDouble / math.max(calls, 1),
      "seed.size_mean" -> seedSize.toDouble / math.max(found, 1),
      "mia.cpp_us" -> cppUs,
      "mia.tomap_us" -> toMapNs / 1e3 / math.max(found, 1),
      "mia.ginf_mean" -> ginf.toDouble / math.max(found, 1),
      "dtopl.retrieve_ms" -> dRows.map(_.retrieveNs / 1e6).sum / dRows.length,
      "dtopl.greedy_ms" -> dRows.map(_.greedyNs / 1e6).sum / dRows.length,
      "dtopl.increment_evals" -> dRows.map(_.evals).sum.toDouble / dRows.length,
      "dtopl.eval_ratio" -> dRows.map(_.evals).sum.toDouble / math.max(dRows.map(_.slots).sum, 1L),
      "jvm.alloc_mb_per_query" -> rowsOut.map(_.allocBytes).sum / 1e6 / rowsOut.length,
      "jvm.gc_ms_per_query" -> gcMs / rowsOut.length,
      "topl.refine_share_est" -> (mean(_.refined) * extractUs + scored * cppUs) / 1e3 / tracedP50,
      "trace.overhead_p50_ms" -> overheadMs)

    val all = plain.length + recs.length
    Report(all, failures.length, failures, Metrics.perLayer.map(d => d -> values(d.name)), Seq(
      "graph" -> Map("vertices" -> g.n, "edges" -> g.numUndirectedEdges),
      "queries" -> Map("untraced" -> plain.length, "traced" -> recs.length, "counted" -> counted.length),
      "warmup" -> Map("build_s" -> seconds(warmBuildNs), "builds" -> 1,
        "queries" -> warmN, "queries_s" -> seconds(warmNs)),
      "kernel_sample" -> Map("queries" -> KernelQueries, "centers" -> calls, "seeds" -> found),
      "dtopl_sample" -> dRows.length,
      "brute_checked" -> math.min(Harness.BruteSample, all)))
  }
}
