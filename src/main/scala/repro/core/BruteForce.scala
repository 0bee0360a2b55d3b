package repro.core

/** Exact top-K search over an in-memory collection — the per-partition
  * kernel of the Spark brute-force search (§5.4) and the reference for
  * HNSW recall tests.
  *
  * The kernel takes queries in blocks of 8: each block is widened once to
  * doubles, interleaved, and scored against every row in one pass over the
  * rows, with one accumulator per query, so the eight sums proceed
  * independently instead of waiting on one another's adds. Each pair's own
  * sum still runs in index order, so every score equals `distance(q, v)`
  * bit for bit. A remainder of fewer than 8 queries is scored one query at
  * a time. Each query keeps its k nearest distinct ids in a [[TopK]], the
  * bounded top-k cut the query merge also runs, which orders (dist, id) as
  * Spark SQL does.
  */
object BruteForce {

  /** Queries scored together in one pass over the rows. */
  private val Block = 8

  /** Exact top-`k` distinct ids of `q` over `items`, sorted by ascending
    * distance with ties broken by id. An id stored more than once counts
    * once, at its nearest copy. Packs the items and runs the flat kernel.
    */
  def topK(items: Iterable[(Long, Array[Float])], q: Array[Float], k: Int,
           distance: Distance): Array[Neighbor] = {
    val n = items.size
    val ids = new Array[Long](n)
    val vecs = new Array[Float](n * q.length)
    var r = 0
    items.foreach { case (id, v) =>
      require(v.length == q.length, s"dim mismatch: ${q.length} vs ${v.length}")
      ids(r) = id
      System.arraycopy(v, 0, vecs, r * q.length, q.length)
      r += 1
    }
    topK(ids, vecs, q.length, Array(q), k, distance)(0)
  }

  /** Exact top-`k` distinct ids of each query over the rows `ids` /
    * `vecs` (row `r` is `vecs[r·dim, (r+1)·dim)`), each sorted by ascending
    * distance with ties broken by id; an id stored more than once counts
    * once, at its nearest copy. Every distance equals `distance(q, v)`
    * exactly. Each query keeps a bounded [[TopK]], O(n log k).
    */
  def topK(ids: Array[Long], vecs: Array[Float], dim: Int, queries: Array[Array[Float]],
           k: Int, distance: Distance): Array[Array[Neighbor]] = {
    require(k > 0, s"k must be positive, got $k")
    require(vecs.length == ids.length * dim, s"${vecs.length} floats for ${ids.length} rows of dim $dim")
    queries.foreach(q => require(q.length == dim, s"dim mismatch: ${q.length} vs $dim"))
    val rows = new Rows(ids, vecs, dim, distance == Distance.Cosine)
    val out = new Array[Array[Neighbor]](queries.length)
    val full = queries.length - queries.length % Block
    val heaps = Array.fill(Block)(new TopK(math.min(k, ids.length))) // n rows hold ≤ n ids
    var b = 0
    while (b < full) {
      rows.scoreBlock(queries, b, heaps)
      var j = 0
      while (j < Block) { out(b + j) = heaps(j).drain(); j += 1 }
      b += Block
    }
    while (b < queries.length) {
      rows.scoreOne(queries(b), heaps(0))
      out(b) = heaps(0).drain()
      b += 1
    }
    out
  }

  /** `Vectors.cosineDist` from a·b and the two norms, each norm the sqrt of
    * the serial sum of squares (`Vectors.norm`).
    */
  private def cosine(ab: Double, na: Double, nb: Double): Double =
    if (na == 0.0 || nb == 0.0) 1.0 else 1.0 - ab / (na * nb)

  /** The rows of one kernel call, with what each query pass reuses: the row
    * norms (cosine) and which rows share their id with another row.
    */
  private final class Rows(ids: Array[Long], vecs: Array[Float], dim: Int, cos: Boolean) {
    private val n = ids.length
    private val nb: Array[Double] =
      if (cos) Array.tabulate(n) { r => val o = r * dim; math.sqrt(Vectors.dot(vecs, o, vecs, o, dim)) }
      else null
    /** Rows whose id occurs more than once; only they search the top-k for their id. */
    private val repeated: Array[Boolean] = {
      val rep = new Array[Boolean](n)
      // open addressing over row indices + 1, one slot per id seen
      val mask = Integer.highestOneBit(math.max(n, 1)) * 4 - 1
      val first = new Array[Int](mask + 1)
      var r = 0
      while (r < n) {
        var s = (ids(r) * 0x9E3779B97F4A7C15L >>> 32).toInt & mask
        while (first(s) != 0 && ids(first(s) - 1) != ids(r)) s = (s + 1) & mask
        if (first(s) == 0) first(s) = r + 1
        else { rep(first(s) - 1) = true; rep(r) = true }
        r += 1
      }
      rep
    }

    /** Scores queries `qs[b, b+Block)` against every row into `heaps`. */
    def scoreBlock(qs: Array[Array[Float]], b: Int, heaps: Array[TopK]): Unit = {
      val qd = new Array[Double](dim * Block) // qd(i·Block + j) = component i of query b + j
      val na = new Array[Double](Block)
      var j = 0
      while (j < Block) {
        val q = qs(b + j)
        var i = 0
        while (i < dim) { qd(i * Block + j) = q(i).toDouble; i += 1 }
        if (cos) na(j) = Vectors.norm(q)
        j += 1
      }
      val h0 = heaps(0); val h1 = heaps(1); val h2 = heaps(2); val h3 = heaps(3)
      val h4 = heaps(4); val h5 = heaps(5); val h6 = heaps(6); val h7 = heaps(7)
      var r = 0
      while (r < n) {
        val off = r * dim
        var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
        var s4 = 0.0; var s5 = 0.0; var s6 = 0.0; var s7 = 0.0
        var i = 0
        if (cos) {
          while (i < dim) {
            val v = vecs(off + i).toDouble
            val o = i * Block
            s0 += qd(o) * v; s1 += qd(o + 1) * v; s2 += qd(o + 2) * v; s3 += qd(o + 3) * v
            s4 += qd(o + 4) * v; s5 += qd(o + 5) * v; s6 += qd(o + 6) * v; s7 += qd(o + 7) * v
            i += 1
          }
          val m = nb(r)
          s0 = cosine(s0, na(0), m); s1 = cosine(s1, na(1), m)
          s2 = cosine(s2, na(2), m); s3 = cosine(s3, na(3), m)
          s4 = cosine(s4, na(4), m); s5 = cosine(s5, na(5), m)
          s6 = cosine(s6, na(6), m); s7 = cosine(s7, na(7), m)
        } else {
          while (i < dim) {
            val v = vecs(off + i).toDouble
            val o = i * Block
            val d0 = qd(o) - v; val d1 = qd(o + 1) - v; val d2 = qd(o + 2) - v; val d3 = qd(o + 3) - v
            val d4 = qd(o + 4) - v; val d5 = qd(o + 5) - v; val d6 = qd(o + 6) - v; val d7 = qd(o + 7) - v
            s0 += d0 * d0; s1 += d1 * d1; s2 += d2 * d2; s3 += d3 * d3
            s4 += d4 * d4; s5 += d5 * d5; s6 += d6 * d6; s7 += d7 * d7
            i += 1
          }
        }
        val id = ids(r); val rep = repeated(r)
        h0.offer(s0, id, rep); h1.offer(s1, id, rep); h2.offer(s2, id, rep); h3.offer(s3, id, rep)
        h4.offer(s4, id, rep); h5.offer(s5, id, rep); h6.offer(s6, id, rep); h7.offer(s7, id, rep)
        r += 1
      }
    }

    /** Scores one query against every row into `heap`. */
    def scoreOne(q: Array[Float], heap: TopK): Unit = {
      val na = if (cos) Vectors.norm(q) else 0.0
      var r = 0
      while (r < n) {
        val d =
          if (cos) cosine(Vectors.dot(q, 0, vecs, r * dim, dim), na, nb(r))
          else Vectors.l2sq(q, 0, vecs, r * dim, dim)
        heap.offer(d, ids(r), repeated(r))
        r += 1
      }
    }
  }
}
