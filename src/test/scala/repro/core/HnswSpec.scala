package repro.core

import org.scalatest.funsuite.AnyFunSuite

class HnswSpec extends AnyFunSuite {

  private val params = HnswParams(m = 8, efConstruction = 60, efSearch = 50, seed = 1L)

  /** Deterministic clustered points: `n` points around `nClusters` centers. */
  private def clustered(n: Int, dim: Int, nClusters: Int, seed: Long): IndexedSeq[(Long, Array[Float])] = {
    val rng = new java.util.Random(seed)
    val centers = Array.fill(nClusters)(Array.fill(dim)(rng.nextFloat() * 2 - 1))
    (0 until n).map { i =>
      val c = centers(rng.nextInt(nClusters))
      i.toLong -> Array.tabulate(dim)(j => c(j) + (rng.nextGaussian() * 0.1).toFloat)
    }
  }

  /** The exact top-`k` ids of each query over `data`, in one call of the flat kernel. */
  private def exactIds(data: IndexedSeq[(Long, Array[Float])], queries: Seq[Array[Float]], k: Int,
                       distance: Distance): IndexedSeq[Set[Long]] =
    BruteForce.topK(data.map(_._1).toArray, data.flatMap(_._2).toArray, queries.head.length,
      queries.toArray, k, distance).map(_.map(_.id).toSet).toIndexedSeq

  private def build(items: Iterable[(Long, Array[Float])], dim: Int,
                    p: HnswParams = params): HnswIndex =
    HnswIndex.build(dim, Distance.Euclidean, p, items.iterator)

  test("empty index returns no neighbors") {
    val idx = HnswIndex.empty(4, Distance.Euclidean, params)
    assert(idx.search(Array(0f, 0f, 0f, 0f), 5).isEmpty)
    assert(idx.size === 0)
    assert(idx.maxLevel === -1)
  }

  test("single-point index returns that point") {
    val idx = HnswIndex.empty(2, Distance.Euclidean, params)
    idx.add(42L, Array(1f, 2f))
    val r = idx.search(Array(1f, 2f), 3)
    assert(r.map(_.id).toSeq === Seq(42L))
    assert(r.head.dist === 0.0)
  }

  test("add rejects wrong dimension") {
    val idx = HnswIndex.empty(3, Distance.Euclidean, params)
    intercept[IllegalArgumentException](idx.add(1L, Array(1f, 2f)))
  }

  test("search rejects wrong query dimension") {
    val idx = HnswIndex.empty(3, Distance.Euclidean, params)
    idx.add(1L, Array(1f, 2f, 3f))
    intercept[IllegalArgumentException](idx.search(Array(1f), 1))
  }

  test("k larger than size returns all points") {
    val idx = build(clustered(5, 4, 2, 3L), 4)
    assert(idx.search(Array(0f, 0f, 0f, 0f), 50).length === 5)
  }

  test("results are sorted by ascending distance") {
    val idx = build(clustered(300, 8, 5, 4L), 8)
    val r = idx.search(Array.fill(8)(0f), 20)
    assert(r.map(_.dist).toSeq === r.map(_.dist).sorted.toSeq)
  }

  test("results contain no duplicate ids") {
    val idx = build(clustered(300, 8, 5, 5L), 8)
    val r = idx.search(Array.fill(8)(0.1f), 30)
    assert(r.map(_.id).distinct.length === r.length)
  }

  test("exact match is always found with a generous beam") {
    val data = clustered(500, 8, 10, 6L)
    val idx = build(data, 8)
    data.take(25).foreach { case (id, v) =>
      val r = idx.search(v, 1, ef = 200)
      assert(r.head.dist === 0.0, s"point $id not its own nearest neighbor")
    }
  }

  test("recall@10 >= 0.9 vs brute force on clustered data") {
    val data = clustered(2000, 16, 20, 7L)
    val idx = build(data, 16, HnswParams(m = 16, efConstruction = 100, efSearch = 100, seed = 2L))
    val rng = new java.util.Random(8L)
    val queries = (0 until 50).map(_ => Array.fill(16)((rng.nextGaussian() * 0.5).toFloat))
    val exact = exactIds(data, queries, 10, Distance.Euclidean)
    val recalls = queries.indices.map { i =>
      val approx = idx.search(queries(i), 10, ef = 100).map(_.id).toSet
      (approx & exact(i)).size / 10.0
    }
    val mean = recalls.sum / recalls.length
    assert(mean >= 0.9, s"mean recall@10 was $mean")
  }

  test("higher ef does not reduce recall (monotone accuracy/speed knob)") {
    val data = clustered(1500, 8, 12, 9L)
    val idx = build(data, 8, HnswParams(m = 8, efConstruction = 80, efSearch = 20, seed = 3L))
    val rng = new java.util.Random(10L)
    val queries = (0 until 30).map(_ => Array.fill(8)((rng.nextGaussian() * 0.5).toFloat))
    val exact = exactIds(data, queries, 10, Distance.Euclidean)
    def recall(ef: Int): Double = queries.indices.map { i =>
      val approx = idx.search(queries(i), 10, ef).map(_.id).toSet
      (approx & exact(i)).size / 10.0
    }.sum / queries.length
    assert(recall(200) >= recall(10) - 0.02)
  }

  test("build is deterministic for a fixed seed and insertion order") {
    val data = clustered(400, 8, 6, 11L)
    val a = build(data, 8)
    val b = build(data, 8)
    val q = Array.fill(8)(0.2f)
    assert(a.search(q, 15).toSeq === b.search(q, 15).toSeq)
  }

  test("adjacency degree never exceeds 2*m") {
    val idx = build(clustered(1000, 8, 8, 12L), 8)
    assert(idx.stats.maxDegreePerLayer.max <= 2 * params.m)
    // Layer 0 is capped at 2m and every upper layer at m, after a round
    // trip too. Small m gives many upper layers, tight clusters full lists.
    val built = Seq(
      idx,
      build(clustered(3000, 4, 3, 21L), 4, params.copy(m = 4)),
      build(clustered(2000, 2, 1, 22L), 2, params.copy(m = 3, efConstruction = 30)),
      HnswIndex.build(16, Distance.Cosine, params.copy(m = 5), clustered(1500, 16, 20, 23L).iterator),
    )
    for (b <- built; i <- Seq(b, HnswIndex.fromBytes(b.toBytes))) {
      val m = i.params.m
      val maxDeg = i.stats.maxDegreePerLayer
      assert(maxDeg.head <= 2 * m, maxDeg)
      assert(maxDeg.tail.forall(_ <= m), maxDeg)
    }
    // the caps are reached, so the assertions above bind
    assert(built.forall(b => b.stats.maxDegreePerLayer.head == 2 * b.params.m))
    assert(built.forall(b => b.stats.maxDegreePerLayer.lift(1).contains(b.params.m)))
  }

  test("level distribution decays roughly geometrically") {
    val idx = build(clustered(2000, 4, 5, 13L), 4)
    val nodes = idx.stats.nodesPerLayer
    val l0 = nodes(0)
    val l1 = nodes.lift(1).getOrElse(0)
    val l2 = nodes.lift(2).getOrElse(0)
    assert(l0 === 2000)
    assert(l1 < l0 / 2) // expected fraction 1/m = 1/8
    assert(l2 <= l1)
    assert(idx.maxLevel < 12)
  }

  test("duplicate external ids are tolerated") {
    val idx = HnswIndex.empty(2, Distance.Euclidean, params)
    idx.add(1L, Array(0f, 0f))
    idx.add(1L, Array(1f, 1f))
    assert(idx.size === 2)
    val r = idx.search(Array(0f, 0f), 2)
    assert(r.length === 2)
  }

  test("ties in distance are broken by ascending id") {
    val idx = HnswIndex.empty(2, Distance.Euclidean, params)
    idx.add(9L, Array(1f, 0f))
    idx.add(3L, Array(-1f, 0f))
    idx.add(6L, Array(0f, 1f))
    val r = idx.search(Array(0f, 0f), 3, ef = 10)
    assert(r.map(_.id).toSeq === Seq(3L, 6L, 9L))
  }

  test("cosine-distance index ranks by angle not magnitude") {
    val idx = HnswIndex.empty(2, Distance.Cosine, params)
    idx.add(1L, Array(10f, 0f))   // same direction as query, large magnitude
    idx.add(2L, Array(0.1f, 0.9f)) // different direction, closer in L2
    val r = idx.search(Array(1f, 0f), 1, ef = 10)
    assert(r.head.id === 1L)
  }

  test("entry point tracks the highest level as the index grows") {
    val data = clustered(800, 4, 4, 14L)
    val idx = HnswIndex.empty(4, Distance.Euclidean, params)
    var maxSeen = -1
    data.foreach { case (id, v) =>
      idx.add(id, v)
      assert(idx.maxLevel >= maxSeen)
      maxSeen = idx.maxLevel
    }
  }

  /** `clustered` rows scaled by random factors in [0.1, 10]. */
  private def scaledClustered(n: Int, dim: Int, nClusters: Int, seed: Long): IndexedSeq[(Long, Array[Float])] = {
    val rng = new java.util.Random(seed ^ 0x5CA1EL)
    clustered(n, dim, nClusters, seed).map { case (id, v) =>
      val f = (0.1 + rng.nextDouble() * 9.9).toFloat
      id -> v.map(_ * f)
    }
  }

  test("cosine recall@10 >= 0.9 vs brute force on rows of mixed magnitude") {
    val data = scaledClustered(2000, 16, 20, 16L)
    val idx = HnswIndex.build(16, Distance.Cosine,
      HnswParams(m = 16, efConstruction = 100, efSearch = 100, seed = 2L), data.iterator)
    val rng = new java.util.Random(17L)
    val queries = (0 until 50).map { _ =>
      val f = 0.1 + rng.nextDouble() * 9.9
      Array.fill(16)((rng.nextGaussian() * 0.5 * f).toFloat)
    }
    val exact = exactIds(data, queries, 10, Distance.Cosine)
    val recalls = queries.indices.map { i =>
      val approx = idx.search(queries(i), 10, ef = 100).map(_.id).toSet
      (approx & exact(i)).size / 10.0
    }
    val mean = recalls.sum / recalls.length
    assert(mean >= 0.9, s"mean cosine recall@10 was $mean")
  }

  test("cosine distances equal Distance.Cosine on the raw vectors") {
    val data = scaledClustered(500, 8, 6, 18L)
    val byId = data.toMap
    val idx = HnswIndex.build(8, Distance.Cosine, params, data.iterator)
    val rng = new java.util.Random(19L)
    (0 until 20).foreach { _ =>
      val q = Array.fill(8)((rng.nextGaussian() * 3).toFloat)
      idx.search(q, 10).foreach { nb =>
        val want = Distance.Cosine(q, byId(nb.id))
        assert(math.abs(nb.dist - want) <= 1e-6, s"id ${nb.id}: ${nb.dist} vs $want")
      }
    }
  }

  test("a zero vector, stored or queried, is at cosine distance 1") {
    val idx = HnswIndex.empty(3, Distance.Cosine, params)
    idx.add(1L, Array(0f, 0f, 0f))
    idx.add(2L, Array(1f, 2f, 3f))
    idx.add(3L, Array(-4f, 0.5f, 2f))
    val fromZero = idx.search(Array(0f, 0f, 0f), 3, ef = 10)
    assert(fromZero.length === 3)
    assert(fromZero.forall(_.dist == 1.0), fromZero.toSeq)
    val toZero = idx.search(Array(1f, 2f, 3f), 3, ef = 10).find(_.id == 1L)
    assert(toZero.map(_.dist) === Some(1.0))
  }

  test("concurrent searches on one shared index return the sequential results") {
    val data = clustered(3000, 16, 20, 20L)
    val idx = build(data, 16, HnswParams(m = 8, efConstruction = 60, efSearch = 80, seed = 5L))
    val rng = new java.util.Random(21L)
    val queries = Array.fill(4, 200)(Array.fill(16)((rng.nextGaussian() * 0.5).toFloat))
    val sequential = queries.map(_.map(q => idx.search(q, 10).toSeq))
    val start = new java.util.concurrent.CountDownLatch(1)
    val concurrent = Array.ofDim[Seq[Neighbor]](4, 200)
    val threads = (0 until 4).map { t =>
      new Thread(() => {
        start.await()
        queries(t).indices.foreach(i => concurrent(t)(i) = idx.search(queries(t)(i), 10).toSeq)
      })
    }
    threads.foreach(_.start())
    start.countDown()
    threads.foreach(_.join())
    for (t <- 0 until 4; i <- 0 until 200)
      assert(concurrent(t)(i) === sequential(t)(i), s"thread $t query $i")
  }

  test("search with default ef uses params.efSearch (still >= k)") {
    val data = clustered(500, 8, 6, 15L)
    val idx = build(data, 8, HnswParams(m = 8, efConstruction = 60, efSearch = 5, seed = 4L))
    // k=20 > efSearch=5: beam must be clamped up to k, so 20 results return
    assert(idx.search(Array.fill(8)(0f), 20).length === 20)
  }

  test("search rejects an explicit ef below 1") {
    val idx = build(clustered(100, 8, 3, 16L), 8, params)
    intercept[IllegalArgumentException](idx.search(Array.fill(8)(0f), 5, ef = 0))
    val e = intercept[IllegalArgumentException](idx.search(Array.fill(8)(0f), 0))
    assert(e.getMessage.contains("k must be >= 1, got 0"))
  }
}
