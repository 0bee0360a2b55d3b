package repro.lanns

import org.apache.commons.math3.special.Erf

/** Per-shard topK reduction (§5.3.2): under random sharding each shard
  * holds ≈1/S of any query's true top-K, so fetching the full K from every
  * shard wastes network and merge cost. The cutoff is the upper end of the
  * Normal Approximation Interval (Brown–Cai–DasGupta) for a binomial
  * proportion s' = 1/S over topK trials:
  *
  *   cI = s' + f(p)·sqrt(s'(1−s')/topK),  perShardTopK = min(topK, ⌈cI·topK⌉)
  *
  * The paper states f(p) is "the (1 − p/2) quantile of the standard normal"
  * with p the confidence; read literally (p = 0.95 → z ≈ 0.06) the interval
  * collapses to s', which contradicts the cited interval. We implement the
  * standard two-sided z, f(p) = Φ⁻¹((1 + p)/2) (0.95 → 1.96), which is what
  * the Normal Approximation Interval prescribes.
  */
object PerShardTopK {

  /** §6.1's topK.confidence. */
  val Confidence = 0.95

  /** Inverse standard-normal CDF, Φ⁻¹(p) = √2·erf⁻¹(2p − 1). For p ≥ 0.5,
    * the only values [[apply]] asks for, 2p − 1 is exact and so is the
    * result to double precision (within 4e−15 of the true quantile); for
    * small p the rounding of 2p − 1 costs accuracy (3e−6 at p = 1e−12).
    */
  def probit(p: Double): Double = {
    require(p > 0.0 && p < 1.0, s"probit defined on (0,1), got $p")
    math.sqrt(2.0) * Erf.erfInv(2.0 * p - 1.0)
  }

  /** The reduced k each shard is asked for. Segments inherit the shard's
    * value unchanged (§5.3.2: no per-segment topK, or fewer than topK
    * results could survive the merge).
    */
  def apply(topK: Int, numShards: Int, confidence: Double): Int = {
    require(topK >= 1, s"topK must be >= 1, got $topK")
    require(confidence > 0.0 && confidence < 1.0, s"confidence in (0,1), got $confidence")
    if (numShards <= 1) topK
    else {
      val sPrime = 1.0 / numShards
      val z = probit((1.0 + confidence) / 2.0)
      val cI = sPrime + z * math.sqrt(sPrime * (1.0 - sPrime) / topK)
      math.min(topK, math.ceil(cI * topK).toInt).max(1)
    }
  }
}
