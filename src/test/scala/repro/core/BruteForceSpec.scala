package repro.core

import org.scalatest.funsuite.AnyFunSuite

class BruteForceSpec extends AnyFunSuite {

  private def pts(vs: (Long, Array[Float])*): Seq[(Long, Array[Float])] = vs

  test("returns exact nearest neighbor") {
    val data = pts(1L -> Array(0f, 0f), 2L -> Array(5f, 5f), 3L -> Array(1f, 1f))
    val r = BruteForce.topK(data, Array(0.1f, 0.1f), 1, Distance.Euclidean)
    assert(r.map(_.id).toSeq === Seq(1L))
  }

  test("returns k results sorted ascending by distance") {
    val data = (1L to 10L).map(i => i -> Array(i.toFloat, 0f))
    val r = BruteForce.topK(data, Array(0f, 0f), 4, Distance.Euclidean)
    assert(r.map(_.id).toSeq === Seq(1L, 2L, 3L, 4L))
    assert(r.map(_.dist).toSeq === r.map(_.dist).sorted.toSeq)
  }

  test("k larger than dataset returns all points") {
    val data = pts(1L -> Array(0f), 2L -> Array(1f))
    val r = BruteForce.topK(data, Array(0f), 10, Distance.Euclidean)
    assert(r.length === 2)
  }

  test("empty dataset returns empty result") {
    assert(BruteForce.topK(Nil, Array(0f), 3, Distance.Euclidean).isEmpty)
  }

  test("k must be positive") {
    intercept[IllegalArgumentException](
      BruteForce.topK(pts(1L -> Array(0f)), Array(0f), 0, Distance.Euclidean))
  }

  test("ties are broken by smaller id") {
    val data = pts(5L -> Array(1f, 0f), 2L -> Array(-1f, 0f), 9L -> Array(0f, 1f))
    val r = BruteForce.topK(data, Array(0f, 0f), 2, Distance.Euclidean)
    assert(r.map(_.id).toSeq === Seq(2L, 5L)) // all at dist 1; keep smallest ids
  }

  test("matches a naive full sort on random data") {
    val rng = new java.util.Random(7)
    // 500 distinct ids, then 500 rows over 150 ids: an id stored more than
    // once counts once, at its nearest copy
    for (data <- Seq((0L until 500L).map(i => i -> Array.fill(6)(rng.nextFloat())),
                     (0 until 500).map(_ => rng.nextInt(150).toLong -> Array.fill(6)(rng.nextFloat())));
         k <- Seq(1, 20, 60)) {
      val q = Array.fill(6)(rng.nextFloat())
      val naive = data
        .map { case (id, v) => Neighbor(id, Distance.Euclidean(q, v)) }
        .groupBy(_.id).values.map(_.minBy(_.dist)).toSeq
        .sortBy(n => (n.dist, n.id))
        .take(k)
      val fast = BruteForce.topK(data, q, k, Distance.Euclidean).toSeq
      assert(fast === naive)
    }
  }

  test("works with cosine distance") {
    val data = pts(1L -> Array(1f, 0f), 2L -> Array(0f, 1f), 3L -> Array(0.9f, 0.1f))
    val r = BruteForce.topK(data, Array(1f, 0f), 2, Distance.Cosine)
    assert(r.head.id === 1L)
    assert(r(1).id === 3L)
  }

  test("distances reported are the metric's comparable values") {
    val data = pts(1L -> Array(3f, 4f))
    val r = BruteForce.topK(data, Array(0f, 0f), 1, Distance.Euclidean)
    assert(r.head.dist === 25.0) // squared L2
  }

  test("k equal to dataset size returns the whole set sorted") {
    val data = pts(3L -> Array(3f), 1L -> Array(1f), 2L -> Array(2f))
    val r = BruteForce.topK(data, Array(0f), 3, Distance.Euclidean)
    assert(r.map(_.id).toSeq === Seq(1L, 2L, 3L))
  }
}
