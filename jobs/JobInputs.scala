package repro.jobs

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.VectorData
import repro.core.{QueryRow, VecRow}

/** What the generic jobs share: positional arguments with defaults, and the
  * one Gaussian mixture they draw data and queries from. The mixture is
  * fixed by the dataset size `n`, so `Query`, which reads `n` back from the
  * index, sends the same vector under each qid as `BruteForceJob`, and
  * recall joined on qid compares like with like.
  */
object JobInputs {
  /** Seed of the mixture, and of the segmenter `BuildIndex` makes. */
  val Seed = 101L

  /** Argument `i`, or `default` when fewer were given. */
  def arg(args: Array[String], i: Int, default: String): String =
    args.lift(i).getOrElse(default)

  private def clusters(n: Long): Int = math.max(8, (n / 400).toInt)

  def data(spark: SparkSession, n: Long, dim: Int): Dataset[VecRow] =
    VectorData.clustered(spark, n, dim, clusters(n), seed = Seed)

  def queries(spark: SparkSession, n: Long, dim: Int, nQueries: Long): Dataset[QueryRow] =
    VectorData.clusteredQueries(spark, nQueries, dim, clusters(n), seed = Seed)
}
