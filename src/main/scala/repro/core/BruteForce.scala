package repro.core

/** Exact top-K search over an in-memory collection — the per-partition
  * kernel of the Spark brute-force search (§5.4) and the reference for
  * HNSW recall tests.
  */
object BruteForce {

  /** Exact top-`k` distinct ids of `q` over `items`, sorted by ascending
    * distance with ties broken by id. An id stored more than once counts
    * once, at its nearest copy. Uses a bounded max-heap, O(n log k).
    */
  def topK(items: Iterable[(Long, Array[Float])], q: Array[Float], k: Int,
           distance: Distance): Array[Neighbor] = {
    require(k > 0, s"k must be positive, got $k")
    // max-heap on (dist, id) so the worst kept neighbor is on top
    val heap = new java.util.PriorityQueue[Neighbor](
      (a: Neighbor, b: Neighbor) => {
        val c = java.lang.Double.compare(b.dist, a.dist)
        if (c != 0) c else java.lang.Long.compare(b.id, a.id)
      })
    val kept = scala.collection.mutable.LongMap.empty[Neighbor] // id -> its heap entry
    val it = items.iterator
    while (it.hasNext) {
      val (id, v) = it.next()
      val d = distance(q, v)
      val worst = if (heap.size < k) null else heap.peek()
      if (worst == null || d < worst.dist || (d == worst.dist && id < worst.id)) {
        val prev = kept.getOrNull(id)
        if (prev == null || d < prev.dist) {
          if (prev != null) heap.remove(prev) // a nearer copy replaces it
          else if (worst != null) kept.remove(heap.poll().id)
          val n = Neighbor(id, d)
          heap.add(n); kept(id) = n
        }
      }
    }
    val out = new Array[Neighbor](heap.size)
    var i = out.length - 1
    while (i >= 0) { out(i) = heap.poll(); i -= 1 }
    out
  }
}
