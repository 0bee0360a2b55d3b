package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

class VectorsSpec extends AnyFunSuite {

  private val eps = 1e-9

  test("l2sq of identical vectors is zero") {
    val v = Array(1.0f, -2.5f, 3.25f)
    assert(Vectors.l2sq(v, v) === 0.0)
  }

  test("l2sq of unit basis vectors is 2") {
    assert(math.abs(Vectors.l2sq(Array(1f, 0f), Array(0f, 1f)) - 2.0) < eps)
  }

  test("l2sq matches hand computation") {
    val a = Array(1f, 2f, 3f); val b = Array(4f, 6f, 8f)
    assert(math.abs(Vectors.l2sq(a, b) - (9.0 + 16.0 + 25.0)) < eps)
  }

  test("l2sq rejects dimension mismatch") {
    intercept[IllegalArgumentException](Vectors.l2sq(Array(1f), Array(1f, 2f)))
  }

  test("dot of orthogonal vectors is zero") {
    assert(Vectors.dot(Array(1f, 0f), Array(0f, 5f)) === 0.0)
  }

  test("dot matches hand computation") {
    assert(math.abs(Vectors.dot(Array(1f, 2f, 3f), Array(4f, 5f, 6f)) - 32.0) < eps)
  }

  test("dot rejects dimension mismatch") {
    intercept[IllegalArgumentException](Vectors.dot(Array(1f), Array(1f, 2f)))
  }

  test("norm of a 3-4-0 vector is 5") {
    assert(math.abs(Vectors.norm(Array(3f, 4f, 0f)) - 5.0) < eps)
  }

  test("norm of the zero vector is zero") {
    assert(Vectors.norm(Array(0f, 0f)) === 0.0)
  }

  test("cosineDist of parallel vectors is 0") {
    assert(math.abs(Vectors.cosineDist(Array(1f, 2f), Array(2f, 4f))) < 1e-7)
  }

  test("cosineDist of orthogonal vectors is 1") {
    assert(math.abs(Vectors.cosineDist(Array(1f, 0f), Array(0f, 1f)) - 1.0) < eps)
  }

  test("cosineDist of opposite vectors is 2") {
    assert(math.abs(Vectors.cosineDist(Array(1f, 0f), Array(-1f, 0f)) - 2.0) < eps)
  }

  test("cosineDist involving the zero vector is 1 by convention") {
    assert(Vectors.cosineDist(Array(0f, 0f), Array(1f, 2f)) === 1.0)
  }

  test("normalize produces a unit vector and leaves the input untouched") {
    val v = Array(3f, 4f)
    val u = Vectors.normalize(v)
    assert(math.abs(Vectors.norm(u) - 1.0) < 1e-6)
    assert(v(0) === 3f && v(1) === 4f)
  }

  test("normalize of the zero vector returns a zero copy") {
    val z = Vectors.normalize(Array(0f, 0f))
    assert(z.forall(_ == 0f))
  }

  private def vecGen(dim: Int): Gen[Array[Float]] =
    Gen.listOfN(dim, Gen.chooseNum(-100.0f, 100.0f)).map(_.toArray)

  private def check(p: Prop): Unit = {
    val r = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), p)
    assert(r.passed, r.status.toString)
  }

  test("property: l2sq is symmetric") {
    check(Prop.forAll(vecGen(8), vecGen(8)) { (a, b) =>
      math.abs(Vectors.l2sq(a, b) - Vectors.l2sq(b, a)) < 1e-6
    })
  }

  test("property: l2sq is non-negative") {
    check(Prop.forAll(vecGen(8), vecGen(8)) { (a, b) => Vectors.l2sq(a, b) >= 0.0 })
  }

  test("property: cosineDist lies in [0, 2] (within float tolerance)") {
    check(Prop.forAll(vecGen(6), vecGen(6)) { (a, b) =>
      val d = Vectors.cosineDist(a, b)
      d >= -1e-6 && d <= 2.0 + 1e-6
    })
  }

  test("property: cosineDist equals 1 - dot/(norm·norm) bit for bit, zero vectors included") {
    val withZeros = Gen.frequency(4 -> vecGen(7), 1 -> Gen.const(Array.fill(7)(0f)))
    check(Prop.forAll(withZeros, withZeros) { (a, b) =>
      val (na, nb) = (Vectors.norm(a), Vectors.norm(b))
      val want = if (na == 0.0 || nb == 0.0) 1.0 else 1.0 - Vectors.dot(a, b) / (na * nb)
      Vectors.cosineDist(a, b) === want
    })
  }

  test("property: l2 triangle inequality (on sqrt of l2sq)") {
    check(Prop.forAll(vecGen(5), vecGen(5), vecGen(5)) { (a, b, c) =>
      val ab = math.sqrt(Vectors.l2sq(a, b))
      val bc = math.sqrt(Vectors.l2sq(b, c))
      val ac = math.sqrt(Vectors.l2sq(a, c))
      ac <= ab + bc + 1e-4
    })
  }
}
