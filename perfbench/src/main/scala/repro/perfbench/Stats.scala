package repro.perfbench

/** Order statistics used for every reported timing. */
object Stats {

  /** Samples that must lie beyond the reported tail value. */
  val TailBeyond = 10

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2.0
  }

  /** The tail: the highest percentile with at least [[TailBeyond]] samples
    * beyond it, i.e. the (TailBeyond+1)-th largest sample, which sits at
    * percentile 100·(N−TailBeyond)/N. Too few samples (N ≤ TailBeyond)
    * have no such percentile; the maximum is returned with `beyond` < 10
    * so the output says so.
    */
  final case class Tail(value: Double, percentile: Double, beyond: Int, samples: Int)

  def tail(xs: Seq[Double]): Tail = {
    require(xs.nonEmpty, "tail of no samples")
    val s = xs.sorted
    val n = s.length
    if (n > TailBeyond) Tail(s(n - 1 - TailBeyond), 100.0 * (n - TailBeyond) / n, TailBeyond, n)
    else Tail(s(n - 1), 100.0, 0, n)
  }
}
