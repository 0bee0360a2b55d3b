package repro.core

/** The `k` nearest of the (distance, id) pairs offered to it: a bounded
  * max-heap over primitive arrays, the one top-k cut of the brute-force
  * kernel (§5.4) and of both levels of the query merge (§5.3).
  *
  * One order, [[TopK.before]], decides which offer enters, which copy of an
  * id is kept and the heap's shape. An offer with `scan` first looks for
  * its id among those held, so that each id is kept once, at its nearest
  * copy; on a tie the copy offered first stays. An offer without `scan` is
  * always a new entry, so ids offered more than once may be held more than
  * once.
  *
  * @param k the most entries held; 0 holds nothing and must not be offered to
  */
private[repro] final class TopK(k: Int) {
  private val dist = new Array[Double](k)
  private val id = new Array[Long](k)
  private var size = 0

  /** Offers id `x` at distance `d`; `scan` says whether the heap may
    * already hold `x`.
    */
  def offer(d: Double, x: Long, scan: Boolean): Unit =
    if (size < k || TopK.before(d, x, dist(0), id(0))) {
      var p = -1
      if (scan) {
        var i = 0
        while (i < size && p < 0) { if (id(i) == x) p = i; i += 1 }
      }
      if (p >= 0) { // a nearer copy replaces the held one
        if (TopK.before(d, x, dist(p), x)) siftDown(p, d, x)
      } else if (size < k) {
        size += 1
        siftUp(size - 1, d, x)
      } else siftDown(0, d, x)
    }

  /** Puts (d, x) in the hole at `h`, moving later parents down. */
  private def siftUp(h: Int, d: Double, x: Long): Unit = {
    var i = h
    var done = false
    while (i > 0 && !done) {
      val p = (i - 1) >>> 1
      if (TopK.before(dist(p), id(p), d, x)) { dist(i) = dist(p); id(i) = id(p); i = p }
      else done = true
    }
    dist(i) = d; id(i) = x
  }

  /** Puts (d, x) in the hole at `h`, moving later children up. */
  private def siftDown(h: Int, d: Double, x: Long): Unit = {
    var i = h
    var done = false
    while (!done) {
      val l = 2 * i + 1
      if (l >= size) done = true
      else {
        val c = if (l + 1 < size && TopK.before(dist(l), id(l), dist(l + 1), id(l + 1))) l + 1 else l
        if (TopK.before(d, x, dist(c), id(c))) { dist(i) = dist(c); id(i) = id(c); i = c }
        else done = true
      }
    }
    dist(i) = d; id(i) = x
  }

  /** The held entries in [[TopK.before]] order; empties the heap. */
  def drain(): Array[Neighbor] = {
    val out = new Array[Neighbor](size)
    while (size > 0) {
      out(size - 1) = Neighbor(id(0), dist(0))
      size -= 1
      if (size > 0) siftDown(0, dist(size), id(size))
    }
    out
  }
}

private[repro] object TopK {

  /** (d1, i1) orders before (d2, i2): Spark SQL's order on distances (-0.0
    * equals 0.0, NaN after every number and equal to NaN), ties to the
    * smaller id.
    */
  def before(d1: Double, i1: Long, d2: Double, i2: Long): Boolean =
    if (d1 < d2) true
    else if (d1 > d2) false
    else if (d1 == d2 || (d1.isNaN && d2.isNaN)) i1 < i2
    else d2.isNaN
}
