package perfbench

import java.nio.ByteBuffer
import java.nio.file.{Files, Paths}
import java.security.MessageDigest
import org.apache.spark.sql.SparkSession
import repro.core.{QueryRow, VecRow}

/** The rows and queries one run feeds to the program, with a checksum of
  * their bytes so two commits can be shown to receive identical inputs.
  */
final case class Inputs(rows: Array[VecRow], queries: Array[QueryRow]) {
  lazy val checksum: String = {
    val md = MessageDigest.getInstance("SHA-256")
    def add(id: Long, vec: Array[Float]): Unit = {
      val b = ByteBuffer.allocate(8 + 4 * vec.length).putLong(id)
      vec.foreach(b.putFloat)
      md.update(b.array())
    }
    rows.foreach(r => add(r.id, r.vec))
    queries.foreach(q => add(q.qid, q.vec))
    md.digest().map(b => f"$b%02x").mkString.take(16)
  }
}

object Inputs {

  /** splitmix64: decorrelates a (seed, stream, index) triple into an RNG
    * seed. The benchmark owns its generator so that a change to the
    * program's own data generators cannot shift the baseline.
    */
  private def mix(x: Long): Long = {
    var z = x + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  private def rng(seed: Long, stream: Long, i: Long): java.util.Random =
    new java.util.Random(mix(mix(mix(seed) ^ stream) + i))

  /** A Gaussian mixture: `clusters` centers uniform in [−1, 1]^dim, every
    * point a center plus isotropic N(0, std²) noise. Queries come from the
    * same mixture with an independent noise stream. Vectors are not
    * normalized. The centers are part of the workload and do not depend on
    * `seed`; the seed draws the points and queries, so seeds differ by
    * sampling noise, not by how the clusters happen to lie.
    */
  def generate(w: Workload, seed: Long): Inputs = {
    val centers = Array.tabulate(w.clusters) { c =>
      val r = rng(0L, 1L, c.toLong)
      Array.fill(w.dim)((r.nextDouble() * 2 - 1).toFloat)
    }
    def draw(stream: Long, i: Int): Array[Float] = {
      val r = rng(seed, stream, i.toLong)
      val c = centers(r.nextInt(centers.length))
      Array.tabulate(w.dim)(j => (c(j) + r.nextGaussian() * w.std).toFloat)
    }
    Inputs(
      Array.tabulate(w.rows)(i => VecRow(i.toLong, draw(2L, i))),
      Array.tabulate(w.queries)(i => QueryRow(i.toLong, draw(3L, i))))
  }

  /** SHA-256 of the fixed embedding file; a run refuses any other bytes. */
  val EmbeddingsSha256 = "f5a6fe8c86ce87190f685e5d246b3e544155aa147a7f47af7d32bb6d8ebe0a95"

  /** The fixed on-disk cosine input: 2000 unit-norm 64-d vectors, of which a
    * seeded choice of `holdOut` rows become the queries.
    */
  def embeddings(spark: SparkSession, path: String, seed: Long, holdOut: Int): Inputs = {
    val sha = MessageDigest.getInstance("SHA-256").digest(Files.readAllBytes(Paths.get(path)))
      .map(b => f"$b%02x").mkString
    require(sha == EmbeddingsSha256, s"$path has sha256 $sha, expected $EmbeddingsSha256")
    val all = spark.read.parquet(path).select("vec_id", "embedding").collect()
      .map(r => VecRow(r.getLong(0), r.getSeq[Float](1).toArray))
      .sortBy(_.id)
    val order = all.indices.toArray
    val r = new java.util.Random(mix(seed))
    for (i <- order.length - 1 to 1 by -1) {
      val j = r.nextInt(i + 1)
      val t = order(i); order(i) = order(j); order(j) = t
    }
    val (q, d) = order.splitAt(holdOut)
    Inputs(d.sorted.map(all(_)), q.sorted.map(i => QueryRow(all(i).id, all(i).vec)))
  }
}
