package repro.truss

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphData, SocialGraph}
import repro.{MiniChecks, TestGraphs}

/** The CSR sorted-row intersection kernel against the hash-set reference
  * and hand-computed values.
  */
class SupportLocalSpec extends AnyFunSuite with MiniChecks {

  test("incidentMaxSupport equals the hash-set reference on random graphs") {
    forAllN2(Gen.chooseNum(2, 40), Gen.chooseNum(1, 1000), n = 60) { (n, seed) =>
      val g = TestGraphs.random(n, 0.05 + (seed % 7) * 0.08, seed = seed.toLong)
      assert(Support.incidentMaxSupport(g).toSeq == TestGraphs.localIncSup(g).toSeq)
    }
  }

  test("hand values: bowtie, clique, isolated vertices and triangle-free edges") {
    // Edge (1,2) lies in two triangles; (3,4) in none.
    assert(Support.incidentMaxSupport(TestGraphs.bowtie()).toSeq == Seq(1, 2, 2, 1, 0))
    assert(Support.incidentMaxSupport(TestGraphs.clique(6)).toSeq == Seq.fill(6)(4))
    // A star 0-{1,2,3}, a path 4-5-6, isolated 7 and 8: no triangle anywhere.
    val forest = SocialGraph.fromEdges(9, Seq((0, 1), (0, 2), (0, 3), (4, 5), (5, 6)))
    assert(Support.incidentMaxSupport(forest).toSeq == Seq.fill(9)(0))
    assert(Support.incidentMaxSupport(SocialGraph.fromEdges(3, Nil)).toSeq == Seq(0, 0, 0))
  }

  test("repeated neighbour ids and self loops in a CSR row are not counted") {
    // Triangle 0-1-2 plus pendant 2-3, with 0-1 and the common neighbour 2
    // repeated in rows 0 and 1 and a self loop at 2, as toGraphData builds
    // from such directed rows.
    val rows = Array(Array(1, 1, 2, 2), Array(0, 0, 2, 2), Array(0, 1, 2, 3), Array(2))
    val offsets = rows.scanLeft(0)(_ + _.length)
    val neigh = rows.flatten
    val g = GraphData(rows.length, offsets, neigh, Array.fill(neigh.length)(0.5),
      Array.fill(rows.length)(Array(0)), Array.fill(rows.length)(1L))
    assert(Support.incidentMaxSupport(g).toSeq == Seq(1, 1, 1, 0))
    assert(TestGraphs.localIncSup(g).toSeq == Seq(1, 1, 1, 0))
  }
}
