package repro.perfbench

import repro.core.{Community, DTopL, Query}
import repro.graph.GraphData
import repro.influence.MIA

/** The correctness gate. Each check returns the reason an answer is wrong,
  * or None. It runs after the timed loop and is never timed.
  */
object Gate {

  val Tol = 1e-9

  /** A TopL answer: at most L communities, σ non-increasing, each community
    * contains its center, every member matches Q, and σ is the MIA score.
    */
  def topL(g: GraphData, q: Query, answer: Seq[Community]): Option[String] = {
    val sigmas = answer.map(_.sigma)
    if (answer.length > q.L) Some(s"${answer.length} communities for L=${q.L}")
    else if (sigmas.zip(sigmas.drop(1)).exists { case (a, b) => b > a })
      Some(s"σ list not non-increasing: ${sigmas.mkString(",")}")
    else answer.iterator.map { c =>
      if (!c.vertices.contains(c.center)) Some(s"community of ${c.center} lacks its center")
      else if (!c.vertices.forall(g.matchesQuery(_, q.keywords)))
        Some(s"community of ${c.center} has a member matching no query keyword")
      else {
        val want = MIA.sigma(g, c.vertices, q.theta)
        if (math.abs(want - c.sigma) > Tol) Some(s"community of ${c.center}: σ=${c.sigma}, MIA gives $want")
        else None
      }
    }.collectFirst { case Some(e) => e }
  }

  /** A DTopL answer against its retrieval set T: the selection is a subset
    * of T, its score is D(selection), and it equals Greedy_WoP's score on T.
    */
  def dTopL(retrieved: IndexedSeq[Community], l: Int, answer: DTopL.DResult): Option[String] = {
    val inT = retrieved.map(_.signature).toSet
    val wop = DTopL.greedyWoP(retrieved, l).score
    val d = DTopL.diversity(answer.selected)
    if (!answer.selected.forall(c => inT.contains(c.signature))) Some("selection is not a subset of the retrieval set")
    else if (math.abs(d - answer.score) > Tol) Some(s"score ${answer.score} but D(selection) = $d")
    else if (math.abs(wop - answer.score) > Tol) Some(s"score ${answer.score} but Greedy_WoP scores $wop")
    else None
  }

  /** σ lists compared elementwise (ties are not yet ordered one way by every
    * path, so vertex sets are not compared).
    */
  def sameSigmas(got: Seq[Double], want: Seq[Double]): Option[String] =
    if (got.length != want.length || got.zip(want).exists { case (a, b) => math.abs(a - b) > Tol })
      Some(s"σ list ${got.mkString(",")} differs from brute force ${want.mkString(",")}")
    else None
}
