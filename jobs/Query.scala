package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.jobs.JobInputs.arg
import repro.lanns.{LannsMeta, Querier}

/** Generic LANNS distributed query (Figure 7): loads the index metadata,
  * routes a clustered query set through the two-level partitioned index,
  * and writes (qid, id, dist, rank) as parquet. The queries come from the
  * mixture `BuildIndex` indexed; its size is the index's vector count,
  * since `BuildIndex` never spills physically.
  *
  * Usage: spark-submit --class repro.jobs.Query <jar> \
  *          <indexDir> <outPath> [nQueries=1000] [topK=100] [efSearch=150] \
  *          [confidence=0.95] [executors=8]
  */
object Query {
  def main(args: Array[String]): Unit = {
    require(args.length >= 2, "usage: Query <indexDir> <outPath> [nQueries] [topK] [efSearch] [confidence] [executors]")
    val indexDir = args(0); val outPath = args(1)
    val nQueries = arg(args, 2, "1000").toLong
    val topK = arg(args, 3, "100").toInt
    val ef = arg(args, 4, "150").toInt
    val confidence = arg(args, 5, "0.95").toDouble
    val executors = arg(args, 6, "8").toInt

    val spark = SparkSession.builder().appName("lanns-query").getOrCreate()
    val meta = LannsMeta.read(indexDir)
    val queries = JobInputs.queries(spark, meta.totalCount, meta.dim, nQueries)
    val res = Querier.search(queries, meta, topK, ef, Some(confidence), executors,
      Some(s"$outPath-ckpt"))
    res.write.mode("overwrite").parquet(outPath)
    println(s"wrote ${spark.read.parquet(outPath).count()} result rows -> $outPath")
    spark.stop()
  }
}
