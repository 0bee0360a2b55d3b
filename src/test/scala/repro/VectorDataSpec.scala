package repro

import repro.core.Vectors

class VectorDataSpec extends SparkSpec {

  test("mix is deterministic and spreads nearby ids") {
    assert(VectorData.mix(1L, 2L) === VectorData.mix(1L, 2L))
    assert(VectorData.mix(1L, 2L) !== VectorData.mix(1L, 3L))
    assert(VectorData.mix(1L, 2L) !== VectorData.mix(2L, 2L))
  }

  test("centers are deterministic and in [-1,1]") {
    val a = VectorData.centers(5, 8, 42L)
    val b = VectorData.centers(5, 8, 42L)
    assert(a.map(_.toSeq).toSeq === b.map(_.toSeq).toSeq)
    a.flatten.foreach(x => assert(x >= -1f && x <= 1f))
  }

  test("clustered produces the requested shape") {
    val ds = VectorData.clustered(spark, 500, 16, nClusters = 5, seed = 1L)
    val rows = ds.collect()
    assert(rows.length === 500)
    assert(rows.forall(_.vec.length === 16))
    assert(rows.map(_.id).distinct.length === 500)
  }

  test("clustered is deterministic across evaluations") {
    val a = VectorData.clustered(spark, 100, 8, 4, seed = 2L).collect().sortBy(_.id)
    val b = VectorData.clustered(spark, 100, 8, 4, seed = 2L).collect().sortBy(_.id)
    a.zip(b).foreach { case (x, y) => assert(x.vec.toSeq === y.vec.toSeq) }
  }

  test("different seeds give different data") {
    val a = VectorData.clustered(spark, 50, 8, 4, seed = 3L).collect().sortBy(_.id)
    val b = VectorData.clustered(spark, 50, 8, 4, seed = 4L).collect().sortBy(_.id)
    assert(a.zip(b).exists { case (x, y) => x.vec.toSeq != y.vec.toSeq })
  }

  test("points concentrate near their cluster centers") {
    val std = 0.1
    val ds = VectorData.clustered(spark, 400, 8, nClusters = 4, std = std, seed = 5L)
    val cs = VectorData.centers(4, 8, 5L)
    val rows = ds.collect()
    // every point should be much closer to SOME center than the typical
    // inter-center distance in [-1,1]^8
    val near = rows.count { r =>
      val dmin = cs.map(c => math.sqrt(Vectors.l2sq(r.vec, c))).min
      dmin < 3 * std * math.sqrt(8.0)
    }
    assert(near > 390, s"only $near of 400 points near a center")
  }

  test("queries share the data's cluster structure") {
    val qs = VectorData.clusteredQueries(spark, 100, 8, nClusters = 4, std = 0.1, seed = 5L)
    val cs = VectorData.centers(4, 8, 5L)
    val near = qs.collect().count { q =>
      cs.map(c => math.sqrt(Vectors.l2sq(q.vec, c))).min < 3 * 0.1 * math.sqrt(8.0)
    }
    assert(near > 95)
  }

  test("queries differ from data points with the same numeric id") {
    val d = VectorData.clustered(spark, 20, 8, 4, seed = 6L).collect().sortBy(_.id)
    val q = VectorData.clusteredQueries(spark, 20, 8, 4, seed = 6L).collect().sortBy(_.qid)
    assert(d.zip(q).exists { case (x, y) => x.vec.toSeq != y.vec.toSeq })
  }

  test("uniform covers the cube") {
    val rows = VectorData.uniform(spark, 1000, 4, seed = 7L).collect()
    val flat = rows.flatMap(_.vec)
    assert(flat.min < -0.8f && flat.max > 0.8f)
    assert(flat.forall(x => x >= -1f && x <= 1f))
  }
}
