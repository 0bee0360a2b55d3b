package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.Distance
import repro.jobs.JobInputs.arg
import repro.lanns.SparkBruteForce

/** Spark brute-force search entrypoint (Figure 8) — exact ground truth for
  * recall computations on large datasets.
  *
  * Usage: spark-submit --class repro.jobs.BruteForceJob <jar> \
  *          <outPath> [n=40000] [dim=32] [nQueries=1000] [k=100] [partitions=16]
  */
object BruteForceJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("lanns-brute-force").getOrCreate()
    try run(spark, args) finally spark.stop()
  }

  /** Runs the search `args` describe in `spark`, writing its result parquet. */
  def run(spark: SparkSession, args: Array[String]): Unit = {
    require(args.nonEmpty, "usage: BruteForceJob <outPath> [n] [dim] [nQueries] [k] [partitions]")
    val outPath = args(0)
    val n = arg(args, 1, "40000").toLong
    val dim = arg(args, 2, "32").toInt
    val nQueries = arg(args, 3, "1000").toLong
    val k = arg(args, 4, "100").toInt
    val partitions = arg(args, 5, "16").toInt

    val data = JobInputs.data(spark, n, dim)
    val queries = JobInputs.queries(spark, n, dim, nQueries)
    val res = SparkBruteForce.search(data, queries, k, Distance.Euclidean, partitions,
      Some(s"$outPath-ckpt"))
    res.write.mode("overwrite").parquet(outPath)
    println(s"wrote ${spark.read.parquet(outPath).count()} ground-truth rows -> $outPath")
  }
}
