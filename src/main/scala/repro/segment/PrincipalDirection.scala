package repro.segment

import org.apache.commons.math3.linear.{Array2DRowRealMatrix, EigenDecomposition}

/** Approximate principal directions for the APD segmenter (§4.3.3).
  *
  * The paper sets A = D·Dᵀ (similarity graph), whose second-largest
  * eigenvector approximates the sparsest cut; the queryable hyperplane is
  * the corresponding **second-largest right singular vector of D**, i.e.
  * the second eigenvector of the d×d Gram matrix G = Dᵀ·D. The paper uses
  * Spark MLlib's SVD, which for small d computes the Gram matrix and a
  * symmetric eigendecomposition of it; we do the same on the driver-side
  * sample the learner draws, with commons-math's exact solver.
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

  /** The APD split direction: second-largest right singular vector of the
    * sample matrix, i.e. the eigenvector of the second-largest eigenvalue of
    * its Gram, from an exact symmetric eigendecomposition. Unit-norm, with
    * the sign fixed so the largest-|coord| entry is positive.
    */
  def secondDirection(rows: Iterable[Array[Float]], dim: Int): Array[Float] = {
    require(dim >= 2, s"a second direction needs dim >= 2, got $dim")
    val eig = new EigenDecomposition(new Array2DRowRealMatrix(gramLocal(rows, dim), false))
    val lambda = eig.getRealEigenvalues
    val order = lambda.indices.sortBy(i => -lambda(i))
    val v = eig.getEigenvector(order(1)).toArray
    fixSign(v)
    v.map(_.toFloat)
  }

  private def fixSign(v: Array[Double]): Unit = {
    var best = 0
    var i = 1
    while (i < v.length) { if (math.abs(v(i)) > math.abs(v(best))) best = i; i += 1 }
    if (v(best) < 0) { var j = 0; while (j < v.length) { v(j) = -v(j); j += 1 } }
  }
}
