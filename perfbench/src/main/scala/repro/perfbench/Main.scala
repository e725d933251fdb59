package repro.perfbench

import com.fasterxml.jackson.databind.ObjectMapper

import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Command-line entry point:
  * `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * Standard output gets two JSON lines: a report (provenance, warm-up,
  * tail percentile, failures, and in a traced run the interaction map),
  * then the result `{"correct", "attempted", "failed", "metrics"}`.
  * Any error exits non-zero before the result is printed.
  */
object Main {

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean)

  def parse(argv: Seq[String]): Args = {
    val kv = argv.grouped(2).map {
      case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val w = Workloads.byName(need("workload")).getOrElse(throw new IllegalArgumentException(
      s"unknown workload ${need("workload")}; one of ${Workloads.all.map(_.name).mkString(", ")}"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val secs = need("seconds").toDouble
    require(secs > 0, "--seconds must be positive")
    Args(w, need("seed").toLong, secs, trace)
  }

  private val json = new ObjectMapper()

  /** Scala values as Jackson-writable Java values; non-finite numbers
    * become strings so the line stays valid JSON.
    */
  def javaValue(v: Any): AnyRef = v match {
    case m: Map[_, _] => m.map { case (k, x) => k.toString -> javaValue(x) }.asJava
    case s: Seq[_] if s.headOption.exists(_.isInstanceOf[(_, _)]) =>
      val out = new java.util.LinkedHashMap[String, AnyRef]()
      s.foreach { case (k, x) => out.put(k.toString, javaValue(x)) }
      out
    case s: Seq[_] => s.map(javaValue).asJava
    case d: Double if d.isNaN || d.isInfinite => d.toString
    case x: AnyRef => x
    case x => x.asInstanceOf[AnyRef]
  }

  def resultLine(r: Report): String = {
    val metrics = r.metrics.map { case (d, v) =>
      require(!v.isNaN && !v.isInfinite, s"metric ${d.name} is $v")
      d.name -> Seq("value" -> v, "unit" -> d.unit)
    }
    json.writeValueAsString(javaValue(Seq(
      "correct" -> (r.failed == 0),
      "attempted" -> r.attempted,
      "failed" -> r.failed,
      "metrics" -> metrics)))
  }

  def provenance(a: Args, cores: Int, sparkVersion: String, master: String): Seq[(String, Any)] = Seq(
    "git_sha" -> sys.props.getOrElse("perfbench.gitSha", "unknown"),
    "git_dirty" -> sys.props.getOrElse("perfbench.gitDirty", "unknown"),
    "nproc" -> cores,
    "spark_master" -> master,
    "spark_version" -> sparkVersion,
    "jdk" -> s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}",
    "driver_xmx" -> sys.props.getOrElse("perfbench.xmx", "default"),
    "max_heap_mb" -> Runtime.getRuntime.maxMemory / 1e6,
    "workload" -> a.workload.name,
    "seed" -> a.seed,
    "seconds" -> a.seconds,
    "trace" -> a.trace)

  def main(argv: Array[String]): Unit = {
    val code =
      try {
        val a = parse(argv.toSeq)
        val cores = Runtime.getRuntime.availableProcessors
        val spark = Harness.session(cores)
        spark.sparkContext.setLogLevel("WARN")
        Harness.log(s"spark up; ${a.workload.name} seed=${a.seed} trace=${a.trace}")
        val lines =
          try {
            val budget = (a.seconds * 1e9).toLong
            val w = a.workload
            val r =
              if (a.trace) Traced.run(spark, w, a.seed, budget, w.n)
              else Harness.endToEnd(spark, w, a.seed, budget, w.n)
            val interaction =
              if (!a.trace) Seq.empty
              else Seq("interaction" -> Metrics.perLayer.map(d => d.name -> Map("moves" -> d.moves, "on" -> d.on)))
            val report = Seq(
              "provenance" -> provenance(a, cores, spark.version, spark.sparkContext.master)) ++
              r.info ++ Seq("failures" -> r.failures.take(20)) ++ interaction
            Seq(json.writeValueAsString(javaValue(Seq("report" -> report))), resultLine(r))
          } finally spark.stop()
        lines.foreach(println)
        0
      } catch {
        case NonFatal(e) =>
          System.err.println(s"perfbench: $e")
          e.printStackTrace()
          1
      }
    System.out.flush()
    sys.exit(code)
  }
}
