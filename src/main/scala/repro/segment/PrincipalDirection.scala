package repro.segment

/** Approximate principal directions for the APD segmenter (§4.3.3).
  *
  * The paper sets A = D·Dᵀ (similarity graph), whose second-largest
  * eigenvector approximates the sparsest cut; the queryable hyperplane is
  * the corresponding **second-largest right singular vector of D**, i.e.
  * the second eigenvector of the d×d Gram matrix G = Dᵀ·D. The paper uses
  * Spark MLlib's SVD; offline we substitute the Gram matrix of the
  * driver-side sample the learner draws, followed by power iteration with
  * deflation — equivalent for the top-2 spectrum and fully unit-testable.
  */
object PrincipalDirection {

  /** Gram matrix Σ v·vᵀ of a driver-side sample, accumulated in doubles. */
  def gramLocal(rows: Iterable[Array[Float]], dim: Int): Array[Array[Double]] = {
    val g = Array.ofDim[Double](dim, dim)
    val it = rows.iterator
    while (it.hasNext) {
      val v = it.next()
      require(v.length == dim, s"row dim ${v.length} != $dim")
      var i = 0
      while (i < dim) {
        val vi = v(i).toDouble
        var j = i
        while (j < dim) { g(i)(j) += vi * v(j); j += 1 }
        i += 1
      }
    }
    // mirror the upper triangle
    var i = 0
    while (i < dim) {
      var j = i + 1
      while (j < dim) { g(j)(i) = g(i)(j); j += 1 }
      i += 1
    }
    g
  }

  /** Top-`k` eigenvectors of a symmetric PSD matrix by power iteration with
    * deflation. Vectors are unit-norm; sign is fixed so the largest-|coord|
    * entry is positive (determinism for tests).
    */
  def topEigenvectors(g: Array[Array[Double]], k: Int, iters: Int = 200,
                      seed: Long = 1234L): Array[Array[Double]] = {
    val dim = g.length
    val work = g.map(_.clone())
    val rng = new java.util.Random(seed)
    val out = new Array[Array[Double]](k)
    var e = 0
    while (e < k) {
      var v = Array.fill(dim)(rng.nextGaussian())
      normalize(v)
      var it = 0
      while (it < iters) {
        v = matVec(work, v)
        val n = normalize(v)
        if (n == 0.0) { v = Array.fill(dim)(rng.nextGaussian()); normalize(v) }
        it += 1
      }
      fixSign(v)
      out(e) = v
      // deflate: work -= λ v vᵀ
      val gv = matVec(work, v)
      val lambda = dotD(v, gv)
      var i = 0
      while (i < dim) {
        var j = 0
        while (j < dim) { work(i)(j) -= lambda * v(i) * v(j); j += 1 }
        i += 1
      }
      e += 1
    }
    out
  }

  /** The APD split direction: second-largest right singular vector of the
    * sample matrix (second eigenvector of its Gram).
    */
  def secondDirection(rows: Iterable[Array[Float]], dim: Int,
                      seed: Long = 1234L): Array[Float] = {
    val g = gramLocal(rows, dim)
    val eig = topEigenvectors(g, k = 2, seed = seed)
    eig(1).map(_.toFloat)
  }

  private def matVec(m: Array[Array[Double]], v: Array[Double]): Array[Double] = {
    val out = new Array[Double](v.length)
    var i = 0
    while (i < v.length) {
      var s = 0.0
      val row = m(i)
      var j = 0
      while (j < v.length) { s += row(j) * v(j); j += 1 }
      out(i) = s
      i += 1
    }
    out
  }

  private def dotD(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  /** Normalize in place; returns the pre-normalization norm. */
  private def normalize(v: Array[Double]): Double = {
    val n = math.sqrt(dotD(v, v))
    if (n > 0) { var i = 0; while (i < v.length) { v(i) /= n; i += 1 } }
    n
  }

  private def fixSign(v: Array[Double]): Unit = {
    var best = 0
    var i = 1
    while (i < v.length) { if (math.abs(v(i)) > math.abs(v(best))) best = i; i += 1 }
    if (v(best) < 0) { var j = 0; while (j < v.length) { v(j) = -v(j); j += 1 } }
  }
}
