package repro.truss

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.GraphData

/** Whole-graph edge supports (triangle counting), which yield the paper's
  * support upper bounds `ub_sup(e)`: the support of an edge in the full
  * data graph G upper-bounds its support in any subgraph g ⊆ G (paper
  * §IV-B discussion).
  *
  * [[incidentMaxSupport]] is the kernel the offline build uses: a
  * sorted-row intersection over the CSR graph. The DataFrame 3-way
  * self-join below is the distributed reference it is tested against
  * (itself checked row for row against DuckDB).
  */
object Support {

  /** Max whole-graph support of the edges incident to each vertex (0 for
    * a vertex without edges), by intersecting the two sorted CSR rows of
    * every edge u < v (the triangle-listing step of Wang & Cheng, "Truss
    * decomposition in massive networks", PVLDB 2012).
    *
    * Rows must be sorted and symmetric, as [[repro.graph.SocialGraph.toGraphData]]
    * builds them. Self loops and repeated neighbour ids are not counted as
    * common neighbours (a repeated edge is only intersected again), so the
    * result equals the one over [[canonicalEdges]] of the same edge list.
    */
  def incidentMaxSupport(g: GraphData): Array[Int] = {
    val off = g.offsets
    val nb = g.neigh
    val inc = new Array[Int](g.n)
    var u = 0
    while (u < g.n) {
      val uFrom = off(u)
      val uUntil = off(u + 1)
      var i = uFrom
      while (i < uUntil) {
        val v = nb(i)
        if (v > u) {
          // |N(u) ∩ N(v)| over distinct ids other than u and v.
          var a = uFrom
          var b = off(v)
          val bUntil = off(v + 1)
          var s = 0
          while (a < uUntil && b < bUntil) {
            val x = nb(a)
            val y = nb(b)
            if (x < y) a += 1
            else if (x > y) b += 1
            else {
              if (x != u && x != v) s += 1
              while (a < uUntil && nb(a) == x) a += 1
              while (b < bUntil && nb(b) == x) b += 1
            }
          }
          if (s > inc(u)) inc(u) = s
          if (s > inc(v)) inc(v) = s
        }
        i += 1
      }
      u += 1
    }
    inc
  }

  /** Canonical undirected edge list (src < dst, distinct) from a directed
    * edge DataFrame (src, dst, …).
    */
  def canonicalEdges(edges: DataFrame): DataFrame =
    edges
      .select(least(col("src"), col("dst")).as("src"), greatest(col("src"), col("dst")).as("dst"))
      .where(col("src") =!= col("dst"))
      .distinct()

  /** All triangles (a < b < c) via the standard oriented 3-way self-join on
    * the canonical edge list.
    */
  def triangles(canonical: DataFrame): DataFrame = {
    val e1 = canonical.select(col("src").as("a"), col("dst").as("b"))
    val e2 = canonical.select(col("src").as("b2"), col("dst").as("c"))
    val e3 = canonical.select(col("src").as("a3"), col("dst").as("c3"))
    e1.join(e2, col("b") === col("b2"))
      .join(e3, col("a") === col("a3") && col("c") === col("c3"))
      .select("a", "b", "c")
  }

  /** Per-edge support in G: (src, dst, support) for every canonical edge,
    * zero-support edges included. Each triangle (a,b,c) contributes one to
    * each of its three edges.
    */
  def edgeSupports(edges: DataFrame): DataFrame = {
    val canon = canonicalEdges(edges)
    val tri = triangles(canon)
    val perEdge = tri
      .select(explode(array(
        struct(col("a").as("src"), col("b").as("dst")),
        struct(col("b").as("src"), col("c").as("dst")),
        struct(col("a").as("src"), col("c").as("dst")))).as("e"))
      .select(col("e.src").as("src"), col("e.dst").as("dst"))
      .groupBy("src", "dst")
      .agg(count(lit(1)).as("support"))
    canon
      .join(perEdge, Seq("src", "dst"), "left")
      .select(col("src"), col("dst"), coalesce(col("support"), lit(0L)).as("support"))
  }

  /** Global triangle count of the graph. */
  def triangleCount(edges: DataFrame): Long = triangles(canonicalEdges(edges)).count()
}
