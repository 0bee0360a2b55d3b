package repro.core

/** Low-level dense float-vector kernels.
  *
  * Storage is `Array[Float]` (half the memory of doubles — the paper notes
  * most online storage is the embeddings); accumulation is in `Double` so
  * distance comparisons are stable.
  *
  * The offset forms read `dim` floats of each operand starting at an offset,
  * so an index can keep all its vectors in one flat array; they do no bounds
  * or dimension checks, which belong at the index's entry points. The
  * whole-array forms check the dimensions and delegate to them.
  */
object Vectors {

  /** Squared Euclidean distance — monotone in L2, used for all ordering. */
  def l2sq(a: Array[Float], b: Array[Float]): Double = {
    require(a.length == b.length, s"dim mismatch: ${a.length} vs ${b.length}")
    l2sq(a, 0, b, 0, a.length)
  }

  /** Squared Euclidean distance of `a[aOff, aOff+dim)` and `b[bOff, bOff+dim)`. */
  def l2sq(a: Array[Float], aOff: Int, b: Array[Float], bOff: Int, dim: Int): Double = {
    var s = 0.0
    var i = 0
    while (i < dim) {
      val d = a(aOff + i).toDouble - b(bOff + i).toDouble
      s += d * d
      i += 1
    }
    s
  }

  /** Dot product. */
  def dot(a: Array[Float], b: Array[Float]): Double = {
    require(a.length == b.length, s"dim mismatch: ${a.length} vs ${b.length}")
    dot(a, 0, b, 0, a.length)
  }

  /** Dot product of `a[aOff, aOff+dim)` and `b[bOff, bOff+dim)`. */
  def dot(a: Array[Float], aOff: Int, b: Array[Float], bOff: Int, dim: Int): Double = {
    var s = 0.0
    var i = 0
    while (i < dim) { s += a(aOff + i).toDouble * b(bOff + i).toDouble; i += 1 }
    s
  }

  /** Euclidean norm. */
  def norm(a: Array[Float]): Double = math.sqrt(dot(a, a))

  /** Cosine distance, 1 − cos(a, b); zero vectors are at distance 1.
    *
    * One pass with separate accumulators for a·b, |a|² and |b|², each summed
    * in index order, so the value equals `1 − dot(a, b) / (norm(a)·norm(b))`
    * bit for bit.
    */
  def cosineDist(a: Array[Float], b: Array[Float]): Double = {
    require(a.length == b.length, s"dim mismatch: ${a.length} vs ${b.length}")
    var ab = 0.0; var aa = 0.0; var bb = 0.0
    var i = 0
    while (i < a.length) {
      val x = a(i).toDouble; val y = b(i).toDouble
      ab += x * y; aa += x * x; bb += y * y
      i += 1
    }
    cosine(ab, math.sqrt(aa), math.sqrt(bb))
  }

  /** Cosine distance from a·b and the two norms: 1 − ab / (na·nb), and 1
    * when either norm is 0 (a zero vector is at distance 1 from everything).
    */
  private[core] def cosine(ab: Double, na: Double, nb: Double): Double =
    if (na == 0.0 || nb == 0.0) 1.0 else 1.0 - ab / (na * nb)

  /** Scale `a` to unit norm; returns a fresh array (zero vector unchanged). */
  def normalize(a: Array[Float]): Array[Float] = {
    val n = norm(a)
    if (n == 0.0) a.clone()
    else {
      val out = new Array[Float](a.length)
      var i = 0
      while (i < a.length) { out(i) = (a(i) / n).toFloat; i += 1 }
      out
    }
  }
}
