package repro.perfbench

import java.io.File

import com.fasterxml.jackson.databind.ObjectMapper
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

import scala.jdk.CollectionConverters._
import scala.util.Random

/** Self-tests of the harness: its statistics, its query streams, a small
  * end-to-end run, the correctness gate, and agreement with BENCHMARK.json.
  * Run with `sbt test` from the benchmark's directory.
  */
class HarnessSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark = {
    val s = Harness.session(2)
    s.sparkContext.setLogLevel("WARN")
    s
  }

  override def afterAll(): Unit = {
    spark.stop()
    super.afterAll()
  }

  private val SmokeN = 1000L
  private val SmokeBudget = 300L * 1000 * 1000 // 0.3 s of queries

  test("tail: the highest percentile with exactly ten samples beyond it") {
    val t = Stats.tail(Random.shuffle((1 to 100).map(_.toDouble)))
    assert(t == Stats.Tail(90.0, 90.0, 10, 100))
    for (n <- Seq(11, 20, 37, 1000)) {
      val xs = Random.shuffle((1 to n).map(_.toDouble))
      val t = Stats.tail(xs)
      assert(xs.count(_ > t.value) == Stats.TailBeyond, s"n=$n")
      assert(t.percentile == 100.0 * (n - Stats.TailBeyond) / n && t.samples == n)
    }
  }

  test("tail: with ten samples or fewer no percentile qualifies; the maximum is flagged") {
    assert(Stats.tail(Seq(3.0, 1.0, 2.0)) == Stats.Tail(3.0, 100.0, 0, 3))
    assert(Stats.tail((1 to 10).map(_.toDouble)).beyond == 0)
    assert(Stats.tail((1 to 11).map(_.toDouble)) == Stats.Tail(1.0, 100.0 / 11, 10, 11))
  }

  test("median of odd and even sample counts") {
    assert(Stats.median(Seq(5.0, 1.0, 3.0)) == 3.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("the query stream is a pure function of (workload, seed)") {
    def prefix(w: Workload, seed: Long) = w.stream(seed).take(60).map(_.render).toList
    Workloads.all.foreach { w =>
      assert(prefix(w, 7) == prefix(w, 7), w.name)
      assert(prefix(w, 7) != prefix(w, 8), w.name)
    }
    assert(prefix(Workloads.uniTopL, 7) != prefix(Workloads.amazonDTopL, 7))
  }

  test("the loop records a thrown query as a failed operation") {
    val (recs, _) = Harness.loop(Workloads.uniTopL.stream(1), 0L, minCount = 5)(
      _ => throw new IllegalStateException("no answer"))
    assert(recs.length == 5)
    assert(recs.forall(_.answer.left.exists(_.contains("no answer"))))
  }

  test("smoke: a 1K-vertex run of every workload passes the gate") {
    Workloads.all.foreach { w =>
      val r = Harness.endToEnd(spark, w, seed = 5L, SmokeBudget, SmokeN)
      assert(r.failed == 0, r.failures)
      assert(r.attempted > 0)
      assert(r.metrics.map(_._1.name) == Metrics.endToEnd.map(_.name))
      r.metrics.foreach { case (d, v) => assert(v > 0 && !v.isInfinite, d.name) }
      Main.resultLine(r) // every value prints as JSON
    }
  }

  test("smoke: a traced 1K-vertex run reports every per-layer metric") {
    val r = Traced.run(spark, Workloads.amazonDTopL, seed = 5L, SmokeBudget, SmokeN)
    assert(r.failed == 0, r.failures)
    assert(r.metrics.map(_._1.name) == Metrics.perLayer.map(_.name))
    r.metrics.foreach { case (d, v) => assert(!v.isNaN && !v.isInfinite, d.name) }
    val m = r.metrics.map { case (d, v) => d.name -> v }.toMap
    assert(m("graph.vertices") == SmokeN.toDouble)
    assert(m("dtopl.increment_evals") > 0 && m("topl.refined") > 0 && m("seed.extract_us") > 0)
  }

  test("the gate counts one deliberately corrupted answer as a failure") {
    val gf = Harness.inputs(spark, Workloads.uniTopL, SmokeN)
    val built = Harness.build(spark, gf)
    Harness.release(gf)
    def records(w: Workload) = Harness.loop(w.stream(9L), 0L, minCount = 4)(Harness.execute(built, _))._1
    val topl = records(Workloads.uniTopL)
    val dtopl = records(Workloads.amazonDTopL)
    assert(Harness.gate(spark, built, topl ++ dtopl, Set(0, 4)).isEmpty)

    val badSigma = topl.updated(1, topl(1).copy(answer = topl(1).answer.map {
      case TopLAnswer(res) =>
        TopLAnswer(res.copy(communities = res.communities.map(c => c.copy(sigma = c.sigma * 1.01))))
      case other => other
    }))
    assert(Harness.gate(spark, built, badSigma, Set.empty).length == 1)

    val badScore = dtopl.updated(2, dtopl(2).copy(answer = dtopl(2).answer.map {
      case DTopLAnswer(res) => DTopLAnswer(res.copy(score = res.score + 0.5))
      case other => other
    }))
    assert(Harness.gate(spark, built, badScore, Set.empty).length == 1)

    val threw = topl.updated(0, topl(0).copy(answer = Left("boom")))
    assert(Harness.gate(spark, built, threw, Set.empty).length == 1)
  }

  test("BENCHMARK.json names the harness's workloads and metrics") {
    val file = Seq(new File("BENCHMARK.json"), new File("../BENCHMARK.json")).find(_.isFile).get
    val spec = new ObjectMapper().readTree(file)
    def list(key: String, fields: String*) =
      spec.get(key).elements().asScala.map(n => fields.map(f => n.get(f).asText())).toList
    assert(list("workloads", "name", "why") == Workloads.all.map(w => Seq(w.name, w.why)))
    assert(list("end_to_end", "name", "unit", "better") == Metrics.endToEnd.map(d => Seq(d.name, d.unit, d.better)))
    assert(list("per_layer", "name", "unit", "better") == Metrics.perLayer.map(d => Seq(d.name, d.unit, d.better)))
  }
}
