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

  test("topEigenvectors recovers the eigenvectors of a diagonal matrix") {
    val g = Array(
      Array(9.0, 0.0, 0.0),
      Array(0.0, 4.0, 0.0),
      Array(0.0, 0.0, 1.0))
    val eig = PrincipalDirection.topEigenvectors(g, 2)
    assert(cross(eig(0), Array(1.0, 0.0, 0.0)) > 0.999)
    assert(cross(eig(1), Array(0.0, 1.0, 0.0)) > 0.999)
  }

  test("topEigenvectors recovers eigenvectors of a rotated 2x2 matrix") {
    // eigenvalues 5 and 1, eigenvectors (1,1)/sqrt2 and (1,-1)/sqrt2
    val g = Array(Array(3.0, 2.0), Array(2.0, 3.0))
    val eig = PrincipalDirection.topEigenvectors(g, 2)
    assert(cross(eig(0), Array(1.0, 1.0)) > 0.999)
    assert(cross(eig(1), Array(1.0, -1.0)) > 0.999)
  }

  test("returned eigenvectors are unit-norm and mutually orthogonal") {
    val rng = new java.util.Random(2)
    val rows = Seq.fill(300)(Array.fill(4)(rng.nextFloat()))
    val g = PrincipalDirection.gramLocal(rows, 4)
    val eig = PrincipalDirection.topEigenvectors(g, 2)
    val n0 = math.sqrt(eig(0).map(x => x * x).sum)
    val n1 = math.sqrt(eig(1).map(x => x * x).sum)
    assert(math.abs(n0 - 1.0) < 1e-6 && math.abs(n1 - 1.0) < 1e-6)
    assert(cross(eig(0), eig(1)) < 1e-3)
  }

  test("secondDirection of off-origin anisotropic data is the dominant variance axis") {
    // Data centered at (10, 0, 0) with per-axis noise std (0.1, 3, 0.2):
    // top singular direction ~ the mean (x axis); the second must be y.
    val rng = new java.util.Random(3)
    val rows = Seq.fill(3000)(Array(
      10f + (rng.nextGaussian() * 0.1).toFloat,
      (rng.nextGaussian() * 3).toFloat,
      (rng.nextGaussian() * 0.2).toFloat))
    val h = PrincipalDirection.secondDirection(rows, 3)
    val hd = h.map(_.toDouble)
    assert(cross(hd, Array(0.0, 1.0, 0.0)) > 0.98,
      s"second direction ${h.toSeq} not aligned with y axis")
  }

  test("power iteration is deterministic for a fixed seed") {
    val rng = new java.util.Random(4)
    val rows = Seq.fill(100)(Array.fill(6)(rng.nextFloat()))
    val g = PrincipalDirection.gramLocal(rows, 6)
    val a = PrincipalDirection.topEigenvectors(g, 2, seed = 9L)
    val b = PrincipalDirection.topEigenvectors(g, 2, seed = 9L)
    assert(a.map(_.toSeq).toSeq === b.map(_.toSeq).toSeq)
  }
}
