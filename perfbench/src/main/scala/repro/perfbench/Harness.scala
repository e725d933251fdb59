package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.{Callable, Executors}

import org.apache.spark.sql.SparkSession
import repro.core.{BruteForce, DTopL, Pipeline, Query, TopLResult}
import repro.graph.SocialGraph.GraphFrames

import scala.util.{Random, Try}
import scala.util.control.NonFatal

sealed trait Answer
final case class TopLAnswer(result: TopLResult) extends Answer
final case class DTopLAnswer(result: DTopL.DResult) extends Answer

/** One operation of the query loop: what was asked, its latency, and what it
  * returned (or the exception it threw).
  */
final case class Record(bq: BenchQuery, nanos: Long, answer: Either[String, Answer])

/** The outcome of one benchmark run, before it is printed. */
final case class Report(
    attempted: Int,
    failed: Int,
    failures: Seq[String],
    metrics: Seq[(MetricDef, Double)],
    info: Seq[(String, Any)])

/** The benchmark's phases, shared by the command-line entry point and the
  * self-tests. All timing is taken from outside the program's modules.
  */
object Harness {

  /** Timed builds per run; `setup_s` is their median. */
  val SetupRepeats = 3
  /** Wall clock of untimed queries run before the loop. */
  val WarmupNanos = 1500L * 1000 * 1000
  /** Loop queries the gate also checks against brute force. */
  val BruteSample = 2

  /** Local Spark on every core. Two shuffle partitions per core: at these
    * graph sizes the program's job default of 64 makes the build time
    * mostly task scheduling rather than the work of its layers.
    */
  def session(cores: Int): SparkSession =
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", (2 * cores).toString)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()

  def seconds(nanos: Long): Double = nanos / 1e9

  /** Progress on standard error, stamped with the JVM's uptime. */
  def log(msg: String): Unit =
    System.err.println(f"[perfbench ${ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%7.2f s] $msg")

  def time[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, System.nanoTime() - t0)
  }

  /** Generate a workload graph and materialise it, so later timings never
    * include generation.
    */
  def inputs(spark: SparkSession, w: Workload, n: Long): GraphFrames = {
    val gf = w.graph(spark, n)
    val cached = GraphFrames(gf.vertices.cache(), gf.edges.cache())
    cached.vertices.count()
    cached.edges.count()
    cached
  }

  def release(gf: GraphFrames): Unit = {
    gf.vertices.unpersist(blocking = true)
    gf.edges.unpersist(blocking = true)
  }

  def build(spark: SparkSession, gf: GraphFrames): Pipeline.Built =
    Pipeline.build(spark, gf, Workloads.RMax, Workloads.ThetaGrid)

  private val memory = ManagementFactory.getMemoryMXBean

  /** Used heap after a full collection. The pause lets Spark's cleaner
    * thread drop blocks whose owners the first collection freed.
    */
  def usedHeapAfterGc(): Long = {
    System.gc()
    Thread.sleep(50)
    System.gc()
    memory.getHeapMemoryUsage.getUsed
  }

  def execute(built: Pipeline.Built, bq: BenchQuery): Answer =
    if (bq.isDTopL) DTopLAnswer(built.dTopL(bq.q, bq.n)) else TopLAnswer(built.topL(bq.q))

  /** A closed loop with one client: the next query is sent only when the
    * previous one has returned, until `budgetNanos` of wall clock is spent
    * and at least `minCount` queries have run. An exception is recorded as
    * a failed operation.
    *
    * @return the records and the loop's wall clock
    */
  def loop(queries: Iterator[BenchQuery], budgetNanos: Long, minCount: Int = 0)(
      run: BenchQuery => Answer): (Vector[Record], Long) = {
    val out = Vector.newBuilder[Record]
    var count = 0
    val start = System.nanoTime()
    val deadline = start + budgetNanos
    while (System.nanoTime() < deadline || count < minCount) {
      val bq = queries.next()
      val t0 = System.nanoTime()
      val res = try Right(run(bq)) catch { case NonFatal(e) => Left(e.toString) }
      out += Record(bq, System.nanoTime() - t0, res)
      count += 1
    }
    (out.result(), System.nanoTime() - start)
  }

  final case class Retrieval(q: Query, result: TopLResult)

  /** The retrieval set of a DTopL query: Alg. 3 at L = n·L, as Built.dTopL runs it. */
  def retrieval(built: Pipeline.Built, bq: BenchQuery): Retrieval = {
    val q = bq.q.copy(L = bq.n * bq.q.L)
    Retrieval(q, built.topL(q))
  }

  /** Gate every record; those at the `brute` positions are also compared
    * with `BruteForce.topL`. The per-answer checks only read the built state
    * and run on every core; brute force runs as Spark jobs afterwards.
    * Returns one failure reason per failed record.
    */
  def gate(spark: SparkSession, built: Pipeline.Built, records: Seq[Record], brute: Set[Int]): Seq[String] = {
    val checked = parallel(records)(check(built, _))
    val bcG = spark.sparkContext.broadcast(built.g)
    try checked.zipWithIndex.flatMap { case (c, i) =>
      val verdict = c match {
        case Left(reason) => Some(reason)
        case Right((q, sigmas)) if brute(i) =>
          Try(Gate.sameSigmas(sigmas, BruteForce.topL(spark, bcG, q).map(_.sigma)))
            .recover { case NonFatal(e) => Some(s"brute force threw $e") }.get
        case _ => None
      }
      verdict.map(v => s"${records(i).bq.render}: $v")
    }
    finally bcG.destroy()
  }

  /** The checks of one answer that need no brute force. On success, the
    * TopL query the answer carries a σ list for, and that list (for DTopL,
    * its retrieval set's).
    */
  private def check(built: Pipeline.Built, rec: Record): Either[String, (Query, Seq[Double])] =
    Try(rec.answer match {
      case Left(err) => Left(s"threw $err")
      case Right(TopLAnswer(r)) =>
        Gate.topL(built.g, rec.bq.q, r.communities).toLeft((rec.bq.q, r.communities.map(_.sigma)))
      case Right(DTopLAnswer(r)) =>
        val t = retrieval(built, rec.bq)
        Gate.topL(built.g, t.q, t.result.communities)
          .orElse(Gate.dTopL(t.result.communities.toIndexedSeq, rec.bq.q.L, r))
          .toLeft((t.q, t.result.communities.map(_.sigma)))
    }).recover { case NonFatal(e) => Left(s"gate threw $e") }.get

  private def parallel[A, B](xs: Seq[A])(f: A => B): Seq[B] = {
    val pool = Executors.newFixedThreadPool(Runtime.getRuntime.availableProcessors)
    try xs.map(x => pool.submit(new Callable[B] { def call(): B = f(x) })).map(_.get)
    finally pool.shutdown()
  }

  /** Seed-chosen loop positions for the brute-force comparison. */
  def bruteSample(n: Int, seed: Long): Set[Int] =
    new Random(seed).shuffle((0 until n).toList).take(BruteSample).toSet

  /** Warm the query path before anything is timed: run untimed queries
    * from another stream of the workload until the JIT has settled.
    */
  def warmQueries(built: Pipeline.Built, w: Workload, seed: Long): (Int, Long) = {
    val (recs, ns) = loop(w.stream(seed + 1), WarmupNanos)(execute(built, _))
    (recs.length, ns)
  }

  /** A throwaway build of a small graph from the same generator, so the
    * timed builds start with a warm JVM and Spark.
    */
  def warmBuild(spark: SparkSession, w: Workload): Long = {
    val gf = inputs(spark, w, Workloads.WarmupN)
    val (_, ns) = time(build(spark, gf))
    release(gf)
    ns
  }

  /** One timed build and the chunk of the query loop that follows it. */
  final case class Round(buildNs: Long, heapBytes: Long, records: Vector[Record], loopNs: Long)

  /** The untraced run: the end-to-end metrics. */
  def endToEnd(spark: SparkSession, w: Workload, seed: Long, budgetNanos: Long, n: Long): Report = {
    val gf = inputs(spark, w, n)
    log("inputs materialised")
    val warmBuildNs = warmBuild(spark, w)
    log("warm-up build done")
    // The builds and the timed loop alternate: the loop runs in one chunk
    // after each build, so both are sampled across most of the run rather
    // than in one short window of a machine whose speed drifts.
    val queries = w.stream(seed)
    var built: Pipeline.Built = null
    var warm = (0, 0L)
    val rounds = (1 to SetupRepeats).map { i =>
      built = null
      val before = usedHeapAfterGc()
      val (b, buildNs) = time(build(spark, gf))
      built = b
      val heapBytes = usedHeapAfterGc() - before
      if (i == 1) warm = warmQueries(built, w, seed)
      val (records, loopNs) = loop(queries, budgetNanos / SetupRepeats)(execute(built, _))
      Round(buildNs, heapBytes, records, loopNs)
    }
    log("timed builds and query loop done")
    val recs = rounds.flatMap(_.records)
    val (warmN, warmNs) = warm
    val failures = gate(spark, built, recs, bruteSample(recs.length, seed))
    log("gate done")
    // a failed operation keeps its latency: it still made its caller wait
    val lat = recs.map(_.nanos / 1e6)
    val tail = Stats.tail(lat)
    val values = Map(
      "setup_s" -> Stats.median(rounds.map(r => seconds(r.buildNs))),
      "query_p50_ms" -> Stats.median(lat),
      "query_tail_ms" -> tail.value,
      "query_qps" -> recs.length / seconds(rounds.map(_.loopNs).sum),
      "built_heap_mb" -> Stats.median(rounds.map(_.heapBytes / 1e6)),
      "success_rate" -> (recs.length - failures.length).toDouble / recs.length)
    release(gf)
    Report(recs.length, failures.length, failures, Metrics.endToEnd.map(d => d -> values(d.name)), Seq(
      "graph" -> Map("vertices" -> built.g.n, "edges" -> built.g.numUndirectedEdges),
      "queries" -> recs.length,
      "tail" -> Map("percentile" -> tail.percentile, "beyond" -> tail.beyond, "samples" -> tail.samples),
      "setup_runs_s" -> rounds.map(r => seconds(r.buildNs)),
      "built_heap_runs_mb" -> rounds.map(_.heapBytes / 1e6),
      "warmup" -> Map("build_s" -> seconds(warmBuildNs), "builds" -> 1,
        "queries" -> warmN, "queries_s" -> seconds(warmNs)),
      "brute_checked" -> math.min(BruteSample, recs.length)))
  }
}
