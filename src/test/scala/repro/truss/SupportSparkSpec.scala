package repro.truss

import org.apache.spark.sql.functions._
import repro.graph.{GraphData, GraphGen, SocialGraph}
import repro.graph.SocialGraph.GraphFrames
import repro.index.Precompute
import repro.{Oracle, SparkSpec, TestGraphs}

/** Distributed triangle counting / edge supports vs the local reference
  * and the DuckDB oracle, and the CSR kernel the build uses vs both.
  */
class SupportSparkSpec extends SparkSpec {

  private lazy val gf = GraphGen.nws(spark, 250, seed = 3L)
  private lazy val gd = SocialGraph.toGraphData(gf)

  /** The DataFrame form of `g`, with `extraEdges` appended as directed rows. */
  private def framesOf(g: GraphData, extraEdges: Seq[(Long, Long, Double)] = Nil): GraphFrames = {
    import spark.implicits._
    val vertices = (0 until g.n).map(v => (v.toLong, g.keywords(v).toSeq)).toDF("id", "keywords")
    val edges = ((0 until g.n).flatMap { v =>
      g.neighborsOf(v).map(u => (v.toLong, u.toLong, 0.5))
    } ++ extraEdges).toDF("src", "dst", "weight")
    GraphFrames(vertices, edges)
  }

  /** CSR kernel == hash-set reference == Spark join, on one graph. */
  private def assertKernelAgrees(frames: GraphFrames): Array[Int] = {
    val g = SocialGraph.toGraphData(frames)
    val kernel = Support.incidentMaxSupport(g)
    assert(kernel.toSeq == TestGraphs.localIncSup(g).toSeq)
    assert(kernel.toSeq == Precompute.incidentMaxSupportArray(spark, frames.edges, g.n).toSeq)
    kernel
  }

  test("CSR incidentMaxSupport equals the local reference and the Spark join on generated graphs") {
    Seq(GraphGen.KwDist.Uniform, GraphGen.KwDist.Gaussian, GraphGen.KwDist.Zipf).foreach { d =>
      assertKernelAgrees(GraphGen.nws(spark, 300, dist = d, seed = 7L))
    }
    val dense = assertKernelAgrees(GraphGen.dblpLike(spark, 2000))
    assert(dense.max > 2, "dblpLike should be triangle-dense")
    assertKernelAgrees(GraphGen.amazonLike(spark, 2000))
  }

  test("CSR incidentMaxSupport on isolated vertices, triangle-free edges and dirty edge rows") {
    val forest = SocialGraph.fromEdges(9, Seq((0, 1), (0, 2), (0, 3), (4, 5), (5, 6)))
    assert(assertKernelAgrees(framesOf(forest)).toSeq == Seq.fill(9)(0))
    // Duplicated directed rows (common neighbour 2 of edge 1-3 repeated in
    // both rows) and a self-loop row change no support.
    val dirty = framesOf(TestGraphs.bowtie(), Seq((1L, 2L, 0.5), (3L, 2L, 0.5), (3L, 3L, 0.5)))
    assert(SocialGraph.toGraphData(dirty).neigh.length == 15)
    assert(assertKernelAgrees(dirty).toSeq == Seq(1, 2, 2, 1, 0))
  }

  test("oracle: CSR per-vertex max support matches DuckDB") {
    import spark.implicits._
    val kernel = Support.incidentMaxSupport(gd).toSeq.zipWithIndex
      .map { case (s, v) => (v.toLong, s.toLong) }.toDF("id", "inc")
    Oracle.assertEquivalent(
      kernel,
      """WITH tri AS (
        |  SELECT e1.src AS a, e1.dst AS b, e2.dst AS c
        |  FROM edges e1
        |  JOIN edges e2 ON e1.dst = e2.src
        |  JOIN edges e3 ON e1.src = e3.src AND e2.dst = e3.dst
        |), per AS (
        |  SELECT src, dst, count(*) AS cnt FROM (
        |    SELECT a AS src, b AS dst FROM tri
        |    UNION ALL SELECT b, c FROM tri
        |    UNION ALL SELECT a, c FROM tri
        |  ) GROUP BY src, dst
        |), sup AS (
        |  SELECT e.src AS src, e.dst AS dst, COALESCE(per.cnt, 0) AS support
        |  FROM edges e LEFT JOIN per ON e.src = per.src AND e.dst = per.dst
        |), inc AS (
        |  SELECT id, max(support) AS m FROM (
        |    SELECT src AS id, support FROM sup UNION ALL SELECT dst, support FROM sup
        |  ) GROUP BY id
        |)
        |SELECT CAST(v.id AS BIGINT) AS id, CAST(COALESCE(inc.m, 0) AS BIGINT) AS inc
        |FROM vertices v LEFT JOIN inc ON v.id = inc.id
        |""".stripMargin,
      "edges" -> Support.canonicalEdges(gf.edges),
      "vertices" -> gf.vertices.select("id"))
  }

  test("canonicalEdges halves the directed edge list") {
    assert(Support.canonicalEdges(gf.edges).count() * 2 == gf.edges.count())
  }

  test("distributed edge supports equal the local Truss.supports") {
    val local = Truss.supports(TestGraphs.adjOf(gd))
    val dist = Support.edgeSupports(gf.edges).collect()
      .map(r => Truss.key(r.getLong(0).toInt, r.getLong(1).toInt) -> r.getLong(2).toInt)
      .toMap
    assert(dist.keySet == local.keySet)
    local.foreach { case (e, s) => assert(dist(e) == s, s"edge $e") }
  }

  test("triangle count equals local triple enumeration on a small graph") {
    val small = GraphGen.nws(spark, 80, seed = 11L)
    val g = SocialGraph.toGraphData(small)
    val adj = TestGraphs.adjOf(g)
    var tri = 0L
    for { a <- 0 until g.n; b <- adj(a); if a < b; c <- adj(b); if b < c && adj(a).contains(c) } tri += 1
    assert(Support.triangleCount(small.edges) == tri)
  }

  test("oracle: edge supports match DuckDB 3-way self-join") {
    val canon = Support.canonicalEdges(gf.edges)
    val sup = Support.edgeSupports(gf.edges)
    Oracle.assertEquivalent(
      sup,
      """WITH tri AS (
        |  SELECT e1.src AS a, e1.dst AS b, e2.dst AS c
        |  FROM edges e1
        |  JOIN edges e2 ON e1.dst = e2.src
        |  JOIN edges e3 ON e1.src = e3.src AND e2.dst = e3.dst
        |), per AS (
        |  SELECT src, dst, CAST(count(*) AS BIGINT) AS cnt FROM (
        |    SELECT a AS src, b AS dst FROM tri
        |    UNION ALL SELECT b, c FROM tri
        |    UNION ALL SELECT a, c FROM tri
        |  ) GROUP BY src, dst
        |)
        |SELECT e.src AS src, e.dst AS dst, CAST(COALESCE(per.cnt, 0) AS BIGINT) AS support
        |FROM edges e LEFT JOIN per ON e.src = per.src AND e.dst = per.dst
        |""".stripMargin,
      "edges" -> canon)
  }

  test("oracle: triangle count matches DuckDB") {
    val canon = Support.canonicalEdges(gf.edges)
    val cnt = Support.triangles(canon).agg(count(lit(1)).as("tri"))
    Oracle.assertEquivalent(
      cnt,
      """SELECT CAST(count(*) AS BIGINT) AS tri
        |FROM edges e1
        |JOIN edges e2 ON e1.dst = e2.src
        |JOIN edges e3 ON e1.src = e3.src AND e2.dst = e3.dst
        |""".stripMargin,
      "edges" -> canon)
  }

  test("supports of a generated clique-overlap graph are consistent with trussness") {
    val d = GraphGen.dblpLike(spark, 400, seed = 5L)
    val g = SocialGraph.toGraphData(d)
    val adj = TestGraphs.adjOf(g)
    val sup = Truss.supports(adj)
    val tn = Truss.trussness(adj)
    // trussness(e) <= sup(e) + 2 always
    tn.foreach { case (e, t) => assert(t <= sup(e) + 2) }
  }

  test("zero-support edges present in the output (left join keeps them)") {
    val star = SocialGraph.fromEdges(5, Seq((0, 1), (0, 2), (0, 3), (0, 4)))
    val sup = Support.edgeSupports(framesOf(star).edges).collect()
    assert(sup.length == 4)
    sup.foreach(r => assert(r.getLong(2) == 0L))
  }
}
