package repro.experiments

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.core.{Distance, HnswParams, QueryRow, VecRow}
import repro.lanns.{Indexer, LannsMeta, Querier, SparkBruteForce}
import repro.segment.Segmenter

/** What every experiment harness does with its dataset: load and cache the
  * data and queries, compute their exact top-`k` ground truth with Spark
  * brute force (§5.4), then time builds and materialized query passes.
  */
final class Harness(spark: SparkSession, val ds: DatasetSpec, k: Int) {
  val data: Dataset[VecRow] = ds.data(spark).cache()
  val n: Long = data.count()
  val queries: Dataset[QueryRow] = ds.queries(spark).cache()
  val nQueries: Long = queries.count()
  val truth: DataFrame = SparkBruteForce
    .search(data, queries, k, Distance.Euclidean, numPartitions = 16)
    .cache()
  truth.count()

  /** Build an index under `dir`; returns its metadata and build wall ms. */
  def build(shards: Int, seg: Segmenter, hnsw: HnswParams, dir: String,
            numExecutors: Int): (LannsMeta, Long) =
    Fmt.timed(Indexer.build(data, ds.dim, shards, seg, Distance.Euclidean, hnsw, dir, numExecutors))

  /** One materialized (cached) query pass; returns it and its wall ms. */
  def query(meta: LannsMeta, topK: Int, efSearch: Int, confidence: Option[Double],
            numExecutors: Int, checkpointDir: Option[String] = None): (DataFrame, Long) =
    Fmt.timed {
      val d = Querier.search(queries, meta, topK, efSearch, confidence, numExecutors,
        checkpointDir).cache()
      d.count()
      d
    }

  def unpersist(): Unit = { truth.unpersist(); data.unpersist(); queries.unpersist() }
}
