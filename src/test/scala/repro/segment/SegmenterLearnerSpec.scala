package repro.segment

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.VectorData
import repro.core.Vectors

class SegmenterLearnerSpec extends AnyFunSuite {

  private def sample(n: Int, dim: Int, seed: Long): Array[Array[Float]] = {
    val rng = new java.util.Random(seed)
    Array.fill(n)(Array.fill(dim)(rng.nextFloat() * 2 - 1))
  }

  test("fractile: nearest-rank picks expected elements") {
    val xs = Array(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
    assert(SegmenterLearner.fractile(xs, 0.5) === 5.0)
    assert(SegmenterLearner.fractile(xs, 0.1) === 1.0)
    assert(SegmenterLearner.fractile(xs, 1.0) === 10.0)
    assert(SegmenterLearner.fractile(xs, 0.0) === 1.0)
  }

  test("learnRH builds a tree with the right depth and node count") {
    val s = SegmenterLearner.learnRH(sample(1000, 8, 1L), 8, depth = 3, alpha = 0.15)
    assert(s.depth === 3)
    assert(s.numSegments === 8)
    assert(s.nodes.length === 7)
    assert(s.mode === "RH")
  }

  test("learnAPD builds a tree with the right shape and mode") {
    val s = SegmenterLearner.learnAPD(sample(1000, 8, 2L), 8, depth = 2, alpha = 0.1)
    assert(s.depth === 2)
    assert(s.numSegments === 4)
    assert(s.mode === "APD")
  }

  test("all learnt hyperplanes are unit vectors") {
    val s = SegmenterLearner.learnRH(sample(500, 6, 3L), 6, depth = 3, alpha = 0.1)
    s.nodes.foreach(n => assert(math.abs(Vectors.norm(n.h) - 1.0) < 1e-5))
  }

  test("boundaries bracket the split: lo <= split <= hi") {
    val s = SegmenterLearner.learnRH(sample(2000, 6, 4L), 6, depth = 3, alpha = 0.15)
    s.nodes.foreach { n =>
      assert(n.lo <= n.split + 1e-9, s"lo ${n.lo} > split ${n.split}")
      assert(n.hi >= n.split - 1e-9, s"hi ${n.hi} < split ${n.split}")
    }
  }

  test("alpha = 0 collapses the spill band to the median") {
    val s = SegmenterLearner.learnRH(sample(2000, 4, 5L), 4, depth = 1, alpha = 0.0)
    val n = s.nodes.head
    assert(n.lo === n.split && n.hi === n.split)
  }

  test("median split balances training data across the two children") {
    val pts = sample(4000, 6, 6L)
    val s = SegmenterLearner.learnRH(pts, 6, depth = 1, alpha = 0.15)
    val n = s.nodes.head
    val left = pts.count(v => Vectors.dot(v, n.h) < n.split)
    assert(math.abs(left - 2000) < 200, s"unbalanced split: $left of 4000 left")
  }

  test("deep trees balance training data across all leaves") {
    val pts = sample(4096, 8, 7L)
    val s = SegmenterLearner.learnRH(pts, 8, depth = 3, alpha = 0.15)
    val counts = pts.map(v => s.routeData(0L, v).head)
      .groupBy(identity).view.mapValues(_.size).toMap
    assert(counts.keySet.size === 8)
    counts.values.foreach(c => assert(c > 4096 / 8 / 3, s"starved leaf: $counts"))
  }

  test("about 2*alpha of training queries fall inside the root spill band") {
    val pts = sample(5000, 6, 8L)
    val alpha = 0.15
    val s = SegmenterLearner.learnRH(pts, 6, depth = 1, alpha = alpha)
    val spilled = pts.count(v => s.routeQuery(v).length == 2)
    val expected = 2 * alpha * pts.length
    assert(math.abs(spilled - expected) < 0.05 * pts.length,
      s"spilled $spilled, expected ~$expected")
  }

  test("learning is deterministic for a fixed seed") {
    val pts = sample(800, 6, 9L)
    val a = SegmenterLearner.learnRH(pts, 6, depth = 2, alpha = 0.1, seed = 77L)
    val b = SegmenterLearner.learnRH(pts, 6, depth = 2, alpha = 0.1, seed = 77L)
    a.nodes.zip(b.nodes).foreach { case (x, y) =>
      assert(x.h.toSeq === y.h.toSeq)
      assert(x.split === y.split)
    }
  }

  test("different RH seeds give different hyperplanes") {
    val pts = sample(800, 6, 10L)
    val a = SegmenterLearner.learnRH(pts, 6, depth = 1, alpha = 0.1, seed = 1L)
    val b = SegmenterLearner.learnRH(pts, 6, depth = 1, alpha = 0.1, seed = 2L)
    assert(a.nodes.head.h.toSeq !== b.nodes.head.h.toSeq)
  }

  test("APD root hyperplane on clustered data separates the two clusters") {
    // Two tight, well separated clusters along y, both offset along x:
    // the top singular direction absorbs the common offset, the second
    // must separate the clusters.
    val rng = new java.util.Random(11L)
    val pts = Array.tabulate(2000) { i =>
      val cy = if (i % 2 == 0) 5f else -5f
      Array(20f + (rng.nextGaussian() * 0.3).toFloat,
            cy + (rng.nextGaussian() * 0.3).toFloat,
            (rng.nextGaussian() * 0.3).toFloat)
    }
    val s = SegmenterLearner.learnAPD(pts, 3, depth = 1, alpha = 0.1)
    val clusterA = pts.zipWithIndex.filter(_._2 % 2 == 0).map(p => s.routeData(0L, p._1).head)
    val clusterB = pts.zipWithIndex.filter(_._2 % 2 == 1).map(p => s.routeData(0L, p._1).head)
    // each cluster lands (nearly) wholly in its own segment; the nearest-rank
    // median equals one training point's projection, which routes to the
    // right child, so allow a one-off straggler per cluster
    def majority(xs: Array[Int]): (Int, Double) = {
      val (seg, cnt) = xs.groupBy(identity).view.mapValues(_.length).maxBy(_._2)
      (seg, cnt.toDouble / xs.length)
    }
    val (segA, fracA) = majority(clusterA)
    val (segB, fracB) = majority(clusterB)
    assert(fracA >= 0.99, s"cluster A split across segments: $fracA")
    assert(fracB >= 0.99, s"cluster B split across segments: $fracB")
    assert(segA !== segB)
  }

  test("degenerate tiny samples still produce a routable segmenter") {
    val s = SegmenterLearner.learnRH(sample(1, 4, 12L), 4, depth = 2, alpha = 0.1)
    val seg = s.routeData(0L, Array(0.5f, 0.5f, 0.5f, 0.5f))
    assert(seg.nonEmpty && seg.forall(g => g >= 0 && g < 4))
  }

  test("invalid depth and alpha are rejected") {
    intercept[IllegalArgumentException](
      SegmenterLearner.learnRH(sample(10, 4, 13L), 4, depth = 0, alpha = 0.1))
    intercept[IllegalArgumentException](
      SegmenterLearner.learnRH(sample(10, 4, 13L), 4, depth = 1, alpha = 0.5))
  }

  test("segmenter factory dispatches to every kind and rejects unknowns") {
    val xs = sample(64, 4, 14L)
    def make(kind: String, m: Int) = SegmenterLearner.segmenter(kind, m, 4, xs, 1L)
    // RS needs no learning: it never evaluates the sample
    val rs = SegmenterLearner.segmenter("RS", 4, 4, sys.error("sample evaluated"), 1L)
    assert(rs.isInstanceOf[RandomSegmenter] && rs.numSegments === 4)
    assert(make("RS", 3).numSegments === 3) // RS takes any segment count
    val rh = make("RH", 4).asInstanceOf[HyperplaneSegmenter]
    assert(rh.numSegments === 4 && rh.mode === "RH")
    val apd = make("APD", 2).asInstanceOf[HyperplaneSegmenter]
    assert(apd.numSegments === 2 && apd.mode === "APD")
    intercept[IllegalArgumentException](make("XX", 2))
    intercept[IllegalArgumentException](make("RH", 3)) // not a power of two
  }
}

/** Subsampling uses Spark (§5.1: uniform subsample feeds the learner). */
class SegmenterSampleSpec extends SparkSpec {

  test("sample caps the returned size") {
    val ds = VectorData.clustered(spark, 5000, 4, nClusters = 3, seed = 20L)
    val s = SegmenterLearner.sample(ds, maxSample = 500, seed = 1L)
    assert(s.length <= 500)
    assert(s.length > 300) // sampling should get close to the cap
    assert(s.head.length === 4)
  }

  test("sample of a small dataset returns close to everything") {
    val ds = VectorData.clustered(spark, 200, 4, nClusters = 3, seed = 21L)
    val s = SegmenterLearner.sample(ds, maxSample = 1000, seed = 1L)
    assert(s.length > 150)
  }
}
