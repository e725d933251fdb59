package repro.perfbench

/** A reported metric: its unit, which way is better, and, for a per-layer
  * metric, the end-to-end metric it should move and the workload where that
  * move should show (the interaction map).
  */
final case class MetricDef(name: String, unit: String, better: String, moves: String = "", on: String = "")

object Metrics {

  private def lower(name: String, unit: String, moves: String = "", on: String = "") =
    MetricDef(name, unit, "lower", moves, on)
  private def higher(name: String, unit: String, moves: String = "", on: String = "") =
    MetricDef(name, unit, "higher", moves, on)

  /** Seen by a user of the system; reported with `--trace 0`. */
  val endToEnd: Seq[MetricDef] = Seq(
    lower("setup_s", "s"),
    lower("query_p50_ms", "ms"),
    lower("query_tail_ms", "ms"),
    higher("query_qps", "1/s"),
    lower("built_heap_mb", "MB"),
    higher("success_rate", "ratio"))

  private val all = "all workloads"

  /** One per module layer; reported with `--trace 1`. */
  val perLayer: Seq[MetricDef] = Seq(
    lower("graph.gen_s", "s", "nothing (input preparation)", all),
    lower("graph.csr_s", "s", "setup_s", all),
    higher("graph.vertices", "count", "nothing (identity check)", all),
    higher("graph.edges", "count", "nothing (identity check)", all),
    lower("truss.support_s", "s", "setup_s", all),
    lower("truss.decomp_s", "s", "nothing today; setup_s if the build adopts trussness", all),
    lower("precompute.s", "s", "setup_s", "uni-topl"),
    lower("precompute.vertex_us", "us", "setup_s", "uni-topl"),
    lower("precompute.ball_mean", "count", "setup_s", "uni-topl"),
    lower("index.tree_s", "s", "setup_s", all),
    lower("index.nodes", "count", "setup_s", all),
    lower("index.height", "count", "query_p50_ms", all),
    lower("topl.refined", "count", "query_p50_ms", "uni-topl"),
    higher("topl.pruned_keyword", "count", "query_p50_ms", all),
    higher("topl.pruned_support", "count", "query_p50_ms", all),
    higher("topl.pruned_score", "count", "query_p50_ms", "amazon-dtopl"),
    higher("topl.heap_terminated", "count", "query_p50_ms", all),
    lower("topl.duplicates", "count", "query_p50_ms", all),
    lower("topl.no_community", "count", "query_p50_ms", all),
    higher("topl.useful_ratio", "ratio", "query_p50_ms", "uni-topl"),
    lower("topl.refined_frac", "ratio", "query_p50_ms", "uni-topl"),
    lower("seed.extract_us", "us", "query_p50_ms", all),
    higher("seed.found_ratio", "ratio", "query_p50_ms", all),
    lower("seed.size_mean", "count", "query_p50_ms", all),
    lower("mia.cpp_us", "us", "query_p50_ms and setup_s", "uni-topl"),
    lower("mia.tomap_us", "us", "query_p50_ms", "uni-topl"),
    lower("mia.ginf_mean", "count", "query_p50_ms", "uni-topl"),
    lower("dtopl.retrieve_ms", "ms", "query_p50_ms", "amazon-dtopl"),
    lower("dtopl.greedy_ms", "ms", "query_p50_ms", "amazon-dtopl"),
    lower("dtopl.increment_evals", "count", "query_p50_ms", "amazon-dtopl"),
    lower("dtopl.eval_ratio", "ratio", "query_p50_ms", "amazon-dtopl"),
    lower("jvm.alloc_mb_per_query", "MB", "query_p50_ms", "uni-topl"),
    lower("jvm.gc_ms_per_query", "ms", "query_p50_ms", "uni-topl"),
    lower("topl.refine_share_est", "ratio", "query_p50_ms (estimate)", "uni-topl"),
    lower("trace.overhead_p50_ms", "ms", "nothing (traced minus untraced p50)", all))
}
