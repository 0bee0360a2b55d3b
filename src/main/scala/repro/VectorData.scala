package repro

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{QueryRow, VecRow}

/** Synthetic dense-vector datasets — the LANNS paper's evaluation schema.
  *
  * The paper evaluates on SIFT1M/GIST1M and four LinkedIn embedding
  * datasets, none of which are available offline, so we generate
  * Gaussian-mixture vectors (real embedding corpora are strongly clustered,
  * which is what makes both HNSW and the data-dependent segmenters behave
  * as published) plus a uniform generator for adversarial cases.
  *
  * All generators are deterministic in (seed, id): each row derives its own
  * RNG from `mix(seed, id)`, so a dataset is reproducible across partitions,
  * re-executions, and the DuckDB oracle.
  */
object VectorData {

  /** splitmix64 — decorrelates (seed, id) into an RNG seed. */
  def mix(seed: Long, id: Long): Long = {
    var z = seed + id * 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Deterministic cluster centers, uniform in [−1, 1]^dim. */
  def centers(nClusters: Int, dim: Int, seed: Long): Array[Array[Float]] = {
    Array.tabulate(nClusters) { c =>
      val r = new java.util.Random(mix(seed, 0x5EED_C000L + c))
      Array.fill(dim)((r.nextDouble() * 2 - 1).toFloat)
    }
  }

  private def drawVec(id: Long, seed: Long, cs: Array[Array[Float]],
                      dim: Int, std: Double): Array[Float] = {
    val r = new java.util.Random(mix(seed, id))
    val c = cs(r.nextInt(cs.length))
    Array.tabulate(dim)(i => (c(i) + r.nextGaussian() * std).toFloat)
  }

  /** A Gaussian-mixture dataset: `n` points in `dim` dimensions drawn from
    * `nClusters` isotropic Gaussians with per-axis std `std`.
    */
  def clustered(spark: SparkSession, n: Long, dim: Int, nClusters: Int,
                std: Double = 0.15, seed: Long = 7L): Dataset[VecRow] = {
    import spark.implicits._
    val cs = centers(nClusters, dim, seed)
    spark.range(n).as[Long].map(id => VecRow(id, drawVec(id, seed, cs, dim, std)))
  }

  /** Queries from the *same* mixture as [[clustered]] (same centers for
    * `seed`), offset ids and an independent noise stream — the standard
    * "queries follow the data distribution" benchmark setup.
    */
  def clusteredQueries(spark: SparkSession, nQueries: Long, dim: Int, nClusters: Int,
                       std: Double = 0.15, seed: Long = 7L): Dataset[QueryRow] = {
    import spark.implicits._
    val cs = centers(nClusters, dim, seed)
    spark.range(nQueries).as[Long]
      .map(qid => QueryRow(qid, drawVec(qid, mix(seed, 0xABCDEFL), cs, dim, std)))
  }

  /** Uniform vectors in [−1, 1]^dim — the adversarial, structureless case. */
  def uniform(spark: SparkSession, n: Long, dim: Int, seed: Long = 11L): Dataset[VecRow] = {
    import spark.implicits._
    spark.range(n).as[Long].map { id =>
      val r = new java.util.Random(mix(seed, id))
      VecRow(id, Array.fill(dim)((r.nextDouble() * 2 - 1).toFloat))
    }
  }

  /** Anisotropic Gaussian: axis `i` has std `stds(i)`. Used to validate that
    * the APD segmenter finds the dominant variance direction.
    */
  def anisotropic(spark: SparkSession, n: Long, stds: Array[Double],
                  seed: Long = 13L): Dataset[VecRow] = {
    import spark.implicits._
    val s = stds // capture a serializable copy
    spark.range(n).as[Long].map { id =>
      val r = new java.util.Random(mix(seed, id))
      VecRow(id, Array.tabulate(s.length)(i => (r.nextGaussian() * s(i)).toFloat))
    }
  }
}
