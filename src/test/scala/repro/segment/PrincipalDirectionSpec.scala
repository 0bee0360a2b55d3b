package repro.segment

import org.scalatest.funsuite.AnyFunSuite

class PrincipalDirectionSpec extends AnyFunSuite {

  private def cross(a: Array[Double], b: Array[Double]): Double = {
    // |cosine| between two unit-ish vectors
    val dot = a.zip(b).map { case (x, y) => x * y }.sum
    val na = math.sqrt(a.map(x => x * x).sum)
    val nb = math.sqrt(b.map(x => x * x).sum)
    math.abs(dot / (na * nb))
  }

  test("gramLocal of two simple rows matches hand computation") {
    val g = PrincipalDirection.gramLocal(Seq(Array(1f, 2f), Array(3f, 4f)), 2)
    assert(g(0)(0) === 10.0) // 1 + 9
    assert(g(0)(1) === 14.0) // 2 + 12
    assert(g(1)(0) === 14.0)
    assert(g(1)(1) === 20.0) // 4 + 16
  }

  test("gramLocal is symmetric") {
    val rng = new java.util.Random(1)
    val rows = Seq.fill(50)(Array.fill(5)(rng.nextFloat()))
    val g = PrincipalDirection.gramLocal(rows, 5)
    for (i <- 0 until 5; j <- 0 until 5) assert(g(i)(j) === g(j)(i))
  }

  test("gramLocal rejects rows of the wrong dimension") {
    intercept[IllegalArgumentException](
      PrincipalDirection.gramLocal(Seq(Array(1f, 2f, 3f)), 2))
  }

  /** One row √λᵢ·eᵢ per eigenvalue, so the Gram is diag(λ). */
  private def diagonalRows(lambda: Double*): Seq[Array[Float]] =
    lambda.indices.map { i =>
      val r = new Array[Float](lambda.length); r(i) = math.sqrt(lambda(i)).toFloat; r
    }

  /** Unit norm, the largest-|coord| entry positive, and a repeated call equal. */
  private def assertWellFormed(rows: Seq[Array[Float]], dim: Int): Array[Float] = {
    val h = PrincipalDirection.secondDirection(rows, dim)
    assert(math.abs(math.sqrt(h.map(x => x.toDouble * x).sum) - 1.0) < 1e-6, h.toSeq)
    assert(h(h.indices.maxBy(i => math.abs(h(i)))) > 0f, s"sign not fixed: ${h.toSeq}")
    assert(PrincipalDirection.secondDirection(rows, dim).toSeq === h.toSeq)
    h
  }

  test("secondDirection of rows whose Gram is diag(9, 4, 1) is e2") {
    val h = assertWellFormed(diagonalRows(9, 4, 1), 3)
    assert(cross(h.map(_.toDouble), Array(0.0, 1.0, 0.0)) > 0.999)
  }

  test("secondDirection of rows with Gram [[3, 2], [2, 3]] is (1, -1)") {
    // eigenvalues 5 and 1, eigenvectors (1,1)/sqrt2 and (1,-1)/sqrt2: the
    // rows sqrt5·(1,1)/sqrt2 and (1,-1)/sqrt2 have exactly that Gram. Both
    // entries of the answer tie in magnitude, so its sign is left to
    // rounding; only repeated calls must agree.
    val s = math.sqrt(0.5)
    val rows = Seq(Array((math.sqrt(5) * s).toFloat, (math.sqrt(5) * s).toFloat),
                   Array(s.toFloat, (-s).toFloat))
    val h = PrincipalDirection.secondDirection(rows, 2)
    assert(math.abs(math.sqrt(h.map(x => x.toDouble * x).sum) - 1.0) < 1e-6, h.toSeq)
    assert(cross(h.map(_.toDouble), Array(1.0, -1.0)) > 0.999)
    assert(PrincipalDirection.secondDirection(rows, 2).toSeq === h.toSeq)
  }

  test("secondDirection is exact when lambda2 and lambda3 nearly tie") {
    // Gram diag(10, 5, 4.99, 1): a gap this small leaves a fixed-step power
    // iteration between e2 and e3.
    val h = assertWellFormed(diagonalRows(10, 5, 4.99, 1), 4)
    val e2 = Array(0f, 1f, 0f, 0f)
    h.indices.foreach(i => assert(math.abs(h(i) - e2(i)) < 1e-6, h.toSeq))
  }

  test("secondDirection is deterministic on random rows") {
    val rng = new java.util.Random(4)
    assertWellFormed(Seq.fill(100)(Array.fill(6)(rng.nextFloat())), 6)
  }

  test("secondDirection rejects a single dimension") {
    intercept[IllegalArgumentException](
      PrincipalDirection.secondDirection(Seq(Array(1f), Array(2f)), 1))
  }

  test("secondDirection of off-origin anisotropic data is the dominant variance axis") {
    // Data centered at (10, 0, 0) with per-axis noise std (0.1, 3, 0.2):
    // top singular direction ~ the mean (x axis); the second must be y.
    val rng = new java.util.Random(3)
    val rows = Seq.fill(3000)(Array(
      10f + (rng.nextGaussian() * 0.1).toFloat,
      (rng.nextGaussian() * 3).toFloat,
      (rng.nextGaussian() * 0.2).toFloat))
    val h = assertWellFormed(rows, 3)
    val hd = h.map(_.toDouble)
    assert(cross(hd, Array(0.0, 1.0, 0.0)) > 0.98,
      s"second direction ${h.toSeq} not aligned with y axis")
  }
}
