package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.Query
import repro.graph.GraphGen
import repro.graph.GraphGen.KwDist
import repro.graph.SocialGraph.GraphFrames

import scala.util.Random

/** One benchmark operation: a TopL query (`n == 0`) or a DTopL query that
  * retrieves the top-(n·L) and selects L of them greedily.
  */
final case class BenchQuery(q: Query, n: Int) {
  def isDTopL: Boolean = n > 0

  /** Canonical text form; `Query` holds an array, so equality goes via this. */
  def render: String =
    s"Q=${q.keywords.mkString("[", ",", "]")} k=${q.k} r=${q.r} θ=${q.theta} L=${q.L} n=$n"
}

/** A workload: one of the program's default graphs, its size, and the query
  * kind. The graph is fixed (the generator's own default seed); the query
  * stream is a pure function of (workload, seed).
  */
final case class Workload(
    name: String,
    why: String,
    n: Long,
    graph: (SparkSession, Long) => GraphFrames,
    draw: Random => BenchQuery) {

  /** The infinite query stream of this workload under `seed`, each query
    * with freshly drawn keywords.
    */
  def stream(seed: Long): Iterator[BenchQuery] = {
    val rnd = new Random(seed * 1000003L + name.hashCode)
    Iterator.continually(draw(rnd))
  }
}

object Workloads {

  // Table III defaults (bold values of the paper).
  val Theta = 0.2
  val QSize = 5
  val K = 4
  val R = 2
  val L = 5
  val SigmaDomain = 20
  val KwPerVertex = 3
  val DTopLN = 5
  val RMax = 3
  val ThetaGrid: Array[Double] = Array(0.1, 0.2, 0.3)

  /** Size of the throwaway warm-up graph, built from the same generator. */
  val WarmupN = 500L

  /** A query at the Table III defaults with |Q| keywords drawn from Σ. */
  private def default(rnd: Random): Query =
    Query(rnd.shuffle((0 until SigmaDomain).toList).take(QSize).toArray, K, R, Theta, L)

  val uniTopL: Workload = Workload(
    "uni-topl",
    "NWS graph where score pruning barely fires: seed extraction and MIA scoring of most centers dominate each default TopL query",
    n = 2000L,
    (spark, n) => GraphGen.nws(spark, n, KwDist.Uniform, KwPerVertex, SigmaDomain),
    rnd => BenchQuery(default(rnd), 0))

  val amazonDTopL: Workload = Workload(
    "amazon-dtopl",
    "Amazon-like graph with DTopL queries: top-(nL) retrieval weakens score pruning, and greedy selection consumes the cpp maps TopL discards",
    n = 2000L,
    (spark, n) => GraphGen.amazonLike(spark, n, KwPerVertex, SigmaDomain),
    rnd => BenchQuery(default(rnd), DTopLN))

  val all: Seq[Workload] = Seq(uniTopL, amazonDTopL)

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
