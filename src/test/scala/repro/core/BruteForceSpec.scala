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

  /** Every (row, query) pair scored with `distance.apply`, each id at its
    * nearest copy, fully sorted by (dist, id), cut at `k`.
    */
  private def naive(ids: Array[Long], rows: Array[Array[Float]], q: Array[Float], k: Int,
                    distance: Distance): Seq[Neighbor] =
    ids.indices.map(r => Neighbor(ids(r), distance(q, rows(r))))
      .groupBy(_.id).values.map(_.minBy(_.dist)).toSeq
      .sortBy(n => (n.dist, n.id))
      .take(k)

  test("the blocked kernel equals a naive full sort, distances bit for bit") {
    val rng = new java.util.Random(11)
    def gauss(dim: Int) = Array.fill(dim)(rng.nextGaussian().toFloat)
    val dim = 13
    for (distance <- Seq(Distance.Euclidean, Distance.Cosine); nq <- Seq(1, 7, 8, 9, 17)) {
      // 240 rows over 160 ids: ids repeat next to each other and far apart
      val ids = Array.tabulate(240)(r => if (r % 40 == 1) r - 1L else rng.nextInt(160).toLong)
      val rows = Array.fill(240)(gauss(dim))
      ids(7) = 1000L; rows(7) = new Array[Float](dim) // a zero row, its id unique
      // a zero query, and one query repeated inside a block and across blocks
      val qs = Array.tabulate(nq)(i => if (i == 0) new Array[Float](dim) else gauss(dim))
      if (nq > 3) qs(3) = qs(1)
      if (nq > 9) qs(9) = qs(1)
      val flat = rows.flatten
      for (k <- Seq(1, 10, 300)) { // 300 > rows
        val got = BruteForce.topK(ids, flat, dim, qs, k, distance)
        assert(got.length === nq)
        qs.indices.foreach { i =>
          assert(got(i).toSeq === naive(ids, rows, qs(i), k, distance), s"$distance nq $nq k $k query $i")
        }
        if (distance == Distance.Cosine) {
          assert(got(0).forall(_.dist == 1.0), "a zero query is at distance 1 from every row")
          if (k == 300) assert(got.forall(_.find(_.id == 1000L).get.dist == 1.0),
            "the zero row is at distance 1 from every query")
        }
      }
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
