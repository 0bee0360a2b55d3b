package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.jobs.JobInputs.arg
import repro.lanns.{LannsMeta, PerShardTopK, Querier}

/** Generic LANNS distributed query (Figure 7): loads the index metadata,
  * routes a clustered query set through the two-level partitioned index at
  * its stored efSearch and §6.1's confidence, and writes (qid, id, dist,
  * rank) as parquet. The queries come from the mixture `BuildIndex`
  * indexed; its size is the index's vector count, since `BuildIndex` never
  * spills physically.
  *
  * Usage: spark-submit --class repro.jobs.Query <jar> \
  *          <indexDir> <outPath> [nQueries=1000] [topK=100] [executors=8]
  */
object Query {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("lanns-query").getOrCreate()
    try run(spark, args) finally spark.stop()
  }

  /** Runs the query `args` describe in `spark`, writing its result parquet. */
  def run(spark: SparkSession, args: Array[String]): Unit = {
    require(args.length >= 2, "usage: Query <indexDir> <outPath> [nQueries] [topK] [executors]")
    val indexDir = args(0); val outPath = args(1)
    val nQueries = arg(args, 2, "1000").toLong
    val topK = arg(args, 3, "100").toInt
    val executors = arg(args, 4, "8").toInt

    val meta = LannsMeta.read(indexDir)
    val queries = JobInputs.queries(spark, meta.totalCount, meta.dim, nQueries)
    val res = Querier.search(queries, meta, topK, meta.params.efSearch,
      Some(PerShardTopK.Confidence), executors, Some(s"$outPath-ckpt"))
    res.write.mode("overwrite").parquet(outPath)
    println(s"wrote ${spark.read.parquet(outPath).count()} result rows -> $outPath")
  }
}
