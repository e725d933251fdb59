package repro.index

import repro.graph.{GraphGen, SocialGraph}
import repro.{SparkSpec, TestGraphs}

/** The distributed offline phase (Spark mapPartitions over broadcast
  * graph) must equal the driver-local per-vertex computation, and the
  * distributed incident-support array must equal the local one.
  */
class PrecomputeSparkSpec extends SparkSpec {

  private lazy val gf = GraphGen.nws(spark, 220, seed = 17L)
  private lazy val gd = SocialGraph.toGraphData(gf)

  test("incidentMaxSupportArray equals the local reference") {
    val dist = Precompute.incidentMaxSupportArray(spark, gf.edges, gd.n)
    assert(dist.toSeq == TestGraphs.localIncSup(gd).toSeq)
  }

  test("distributed run equals local per-vertex aggregates (all radii, all θ_z)") {
    val inc = Precompute.incidentMaxSupportArray(spark, gf.edges, gd.n)
    val bcG = spark.sparkContext.broadcast(gd)
    val bcInc = spark.sparkContext.broadcast(inc)
    val dist = Precompute.run(spark, bcG, bcInc, 2, Precompute.DefaultThetaGrid)
      .collect().map(a => (a.id, a.r) -> a).toMap
    assert(dist.size == gd.n * 2)
    (0 until gd.n).foreach { v =>
      Precompute.localVertexAggs(gd, inc, v, 2, Precompute.DefaultThetaGrid).foreach { want =>
        val got = dist((want.id, want.r))
        assert(got.bv == want.bv)
        assert(got.ubSup == want.ubSup)
        got.sigmas.zip(want.sigmas).foreach { case (a, b) => assert(math.abs(a - b) < 1e-9) }
      }
    }
  }

  test("offline() output feeds TreeIndex.build without gaps") {
    val rows = Precompute.offline(spark, gd, 2)
    val idx = TreeIndex.build(rows)
    assert(TreeIndex.vertices(idx).size == gd.n)
    assert(idx.agg.rMax == 2)
  }

  test("offline() with CSR supports is identical to run() fed the Spark supports, index order included") {
    val dense = GraphGen.dblpLike(spark, 600, seed = 13L)
    val g = SocialGraph.toGraphData(dense)
    val rMax = 3
    val viaCsr = Precompute.offline(spark, g, rMax)
    val bcG = spark.sparkContext.broadcast(g)
    val bcInc = spark.sparkContext.broadcast(Precompute.incidentMaxSupportArray(spark, dense.edges, g.n))
    val viaJoin = Precompute.run(spark, bcG, bcInc, rMax).collect()
    assert(viaJoin.map(_.ubSup).max > 2, "dblpLike should be triangle-dense")
    val want = viaJoin.map(a => (a.id, a.r) -> a).toMap
    assert(viaCsr.length == g.n * rMax && want.size == viaCsr.length)
    viaCsr.foreach { got =>
      val w = want((got.id, got.r))
      assert(got.bv == w.bv && got.ubSup == w.ubSup, s"vertex ${got.id} r=${got.r}")
      assert(got.sigmas.sameElements(w.sigmas), s"σ of vertex ${got.id} r=${got.r}")
    }
    val leafOrder = (rows: Array[Precompute.VertexAgg]) => TreeIndex.vertices(TreeIndex.build(rows)).map(_.id).toSeq
    assert(leafOrder(viaCsr) == leafOrder(viaJoin))
  }
}
