package repro.segment

import org.apache.spark.sql.Dataset
import repro.core.{VecRow, Vectors}
import scala.collection.mutable.ArrayBuffer

/** Learns hyperplane-tree segmenters from a uniform subsample (§5.1).
  *
  * The framework mirrors Figure 5: subsample the dataset uniformly at
  * random, run the segmenter-learning algorithm (RH or APD) on the sample
  * to produce a tree of (hyperplane, split, lo, hi) nodes, and share the
  * one learnt segmenter across all shards.
  */
object SegmenterLearner {

  /** Uniformly subsample up to `maxSample` vectors to the driver — the
    * paper uses 250k; our scaled benches use ≤50k.
    */
  def sample(data: Dataset[VecRow], maxSample: Int, seed: Long = 21L): Array[Array[Float]] = {
    val n = data.count()
    val frac = if (n == 0) 0.0 else math.min(1.0, maxSample.toDouble * 1.2 / n)
    val s = data.sample(withReplacement = false, frac, seed).collect()
    s.iterator.take(maxSample).map(_.vec).toArray
  }

  /** The segmenter of `kind` — RS, RH or APD (§4.3) — with `segments`
    * segments per shard. RS takes any segment count and never evaluates
    * `sample`; RH and APD learn a tree of depth log2(`segments`), so they
    * need a power of two >= 2.
    */
  def segmenter(kind: String, segments: Int, alpha: Double, dim: Int,
                sample: => Array[Array[Float]], seed: Long): Segmenter = kind match {
    case "RS" => new RandomSegmenter(segments, seed)
    case "RH" | "APD" =>
      require(segments >= 2 && Integer.bitCount(segments) == 1,
        s"$kind needs a power-of-two segment count >= 2, got $segments")
      val depth = Integer.numberOfTrailingZeros(segments)
      if (kind == "RH") learnRH(sample, dim, depth, alpha, seed)
      else learnAPD(sample, dim, depth, alpha, seed)
    case other => throw new IllegalArgumentException(s"unknown segmenter kind $other")
  }

  /** Learn a Random Hyperplane (RH) segmenter of `depth` levels: each node
    * draws a direction uniformly from the unit sphere, splits its subset at
    * the median projection, and records spill boundaries at the
    * (0.5±alpha) fractiles.
    */
  def learnRH(sample: Array[Array[Float]], dim: Int, depth: Int, alpha: Double,
              seed: Long = 33L): HyperplaneSegmenter = {
    val rng = new java.util.Random(seed)
    learnTree(sample, dim, depth, alpha, mode = "RH",
      direction = (_: Array[Array[Float]]) => randomUnit(dim, rng))
  }

  /** Learn an Approximate Principal Direction (APD) segmenter: each node
    * splits its subset along the second-largest right singular vector of
    * the subset matrix (§4.3.3), with the same spill machinery as RH.
    * `seed` only draws the random direction of a node whose subset has
    * fewer than 2 rows.
    */
  def learnAPD(sample: Array[Array[Float]], dim: Int, depth: Int, alpha: Double,
               seed: Long = 33L): HyperplaneSegmenter =
    learnTree(sample, dim, depth, alpha, mode = "APD",
      direction = (subset: Array[Array[Float]]) =>
        if (subset.length < 2) randomUnit(dim, new java.util.Random(seed))
        else PrincipalDirection.secondDirection(subset, dim))

  /** Shared recursive learner: breadth-first over the complete binary tree,
    * each internal node computing `direction` on its subset, then a median
    * split with (0.5±alpha)-fractile boundaries.
    */
  private def learnTree(sample: Array[Array[Float]], dim: Int, depth: Int, alpha: Double,
                        mode: String,
                        direction: Array[Array[Float]] => Array[Float]): HyperplaneSegmenter = {
    require(depth >= 1, s"depth must be >= 1, got $depth")
    require(alpha >= 0.0 && alpha < 0.5, s"alpha must be in [0, 0.5), got $alpha")
    val nInternal = (1 << depth) - 1
    val nodes = new Array[HyperplaneNode](nInternal)
    // subsets(i) = training points that reach internal node i
    val subsets = new Array[Array[Array[Float]]](2 * nInternal + 1)
    subsets(0) = sample
    var i = 0
    while (i < nInternal) {
      val subset = subsets(i)
      val h = Vectors.normalize(direction(subset))
      val projs = subset.map(v => Vectors.dot(v, h)).sorted
      val (split, lo, hi) =
        if (projs.isEmpty) (0.0, 0.0, 0.0)
        else (
          fractile(projs, 0.5),
          fractile(projs, 0.5 - alpha),
          fractile(projs, 0.5 + alpha),
        )
      nodes(i) = HyperplaneNode(h, split, lo, hi)
      val left  = new ArrayBuffer[Array[Float]](subset.length / 2 + 1)
      val right = new ArrayBuffer[Array[Float]](subset.length / 2 + 1)
      subset.foreach { v =>
        if (Vectors.dot(v, h) < split) left += v else right += v
      }
      subsets(2 * i + 1) = left.toArray
      subsets(2 * i + 2) = right.toArray
      subsets(i) = null // release
      i += 1
    }
    new HyperplaneSegmenter(nodes, depth, physicalSpill = false, mode = mode)
  }

  /** The q-fractile of an ascending-sorted array (nearest-rank). */
  def fractile(sortedAsc: Array[Double], q: Double): Double = {
    val idx = math.min(sortedAsc.length - 1,
      math.max(0, math.ceil(q * sortedAsc.length).toInt - 1))
    sortedAsc(idx)
  }

  private def randomUnit(dim: Int, rng: java.util.Random): Array[Float] =
    Vectors.normalize(Array.fill(dim)(rng.nextGaussian().toFloat))
}
