package repro.segment

import repro.core.Vectors

/** One internal node of a hyperplane tree (§4.3.2): a split direction `h`,
  * the median projection `split`, and the virtual-spill boundaries
  * `lo`/`hi` at the (0.5−α)/(0.5+α) fractiles of the training projections.
  */
final case class HyperplaneNode(h: Array[Float], split: Double, lo: Double, hi: Double)
    extends Serializable

/** A complete binary tree of separating hyperplanes — the shared machinery
  * of the Random Hyperplane (RH) and Approximate Principal Direction (APD)
  * segmenters. Segments are the 2^depth leaves.
  *
  * Routing follows §4.3.2:
  *  - data: `x·h < split` → left, else right (one leaf) — unless
  *    `physicalSpill` is set, in which case points whose projection falls in
  *    `[lo, hi]` descend into *both* children (data-side duplication);
  *  - queries: projections in `[lo, hi]` descend into both children
  *    (virtual spill) — unless `physicalSpill` is set, in which case the
  *    query takes the single median side.
  *
  * Nodes are stored in breadth-first array order: node `i` has children
  * `2i+1` and `2i+2`; leaf `j` (segment id `j`) sits at array position
  * `2^depth − 1 + j`.
  *
  * @param mode tags which learning algorithm produced the tree ("RH"/"APD"),
  *             only for logs and serialized metadata
  */
final class HyperplaneSegmenter(
    val nodes: Array[HyperplaneNode],
    val depth: Int,
    val physicalSpill: Boolean = false,
    val mode: String = "RH",
) extends Segmenter {
  require(depth >= 1, s"depth must be >= 1, got $depth")
  require(nodes.length == (1 << depth) - 1,
    s"expected ${(1 << depth) - 1} internal nodes for depth $depth, got ${nodes.length}")

  val numSegments: Int = 1 << depth

  private def descend(vec: Array[Float], spill: Boolean): Array[Int] = {
    var frontier = List(0)
    var level = 0
    while (level < depth) {
      frontier = frontier.flatMap { i =>
        val n = nodes(i)
        val p = Vectors.dot(vec, n.h)
        if (spill && p >= n.lo && p <= n.hi) List(2 * i + 1, 2 * i + 2)
        else if (p < n.split) List(2 * i + 1)
        else List(2 * i + 2)
      }
      level += 1
    }
    val base = (1 << depth) - 1
    frontier.map(_ - base).distinct.toArray
  }

  def routeData(id: Long, vec: Array[Float]): Array[Int] = descend(vec, spill = physicalSpill)

  def routeQuery(vec: Array[Float]): Array[Int] = descend(vec, spill = !physicalSpill)

  /** Same tree with the opposite spill side (used by the Table 7 sweep). */
  def withPhysicalSpill(on: Boolean): HyperplaneSegmenter =
    new HyperplaneSegmenter(nodes, depth, on, mode)

  override def toString: String =
    s"HyperplaneSegmenter(mode=$mode, depth=$depth, segments=$numSegments, " +
      s"spill=${if (physicalSpill) "physical" else "virtual"})"
}
