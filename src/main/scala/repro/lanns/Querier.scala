package repro.lanns

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.{Hit, QueryRow, TaggedRow}

/** Distributed querying over a two-level partitioned index (§5.3, Figure 7).
  *
  * Queries are routed (every shard; the segmenter's virtual-spill segment
  * set) and packed into executor slots like the indexer. Each task loads its
  * (shard, segment) index once, runs partial HNSW searches, and emits
  * per-segment hits. Merging is two-level, mirroring the online system:
  * segment hits merge *within* a shard first (keeping the perShardTopK best,
  * §5.3.2), then shard results merge globally to the final topK. Both merges
  * are Catalyst `Window` operators over repartitioned keys.
  *
  * Partial results can be checkpointed to a temporary directory between
  * stages (§5.3.1's defense against cascading executor time-outs); pass
  * `checkpointDir` to exercise that path.
  */
object Querier {

  /** Search `queries` against the index described by `meta` rooted at the
    * paths inside it.
    *
    * @param topK        neighbors per query in the final result
    * @param efSearch    HNSW beam width (clamped up to the per-shard k)
    * @param confidence  topK.confidence for the perShardTopK reduction;
    *                    None disables it (each shard returns topK)
    * @param numExecutors parallelism slots emulating executor counts
    * @param checkpointDir when set, partial results are persisted to
    *                    `<dir>/partial_hits` and reloaded before merging;
    *                    only that subdirectory is deleted afterwards
    * @return DataFrame (qid, id, dist, rank) with rank in 1..topK
    */
  def search(
      queries: Dataset[QueryRow],
      meta: LannsMeta,
      topK: Int,
      efSearch: Int,
      confidence: Option[Double] = None,
      numExecutors: Int = 8,
      checkpointDir: Option[String] = None,
  ): DataFrame = {
    val spark = queries.sparkSession
    import spark.implicits._

    val kShard = confidence.map(PerShardTopK(topK, meta.numShards, _)).getOrElse(topK)
    val nSeg = meta.numSegments
    val shards = meta.numShards
    val paths: Map[(Int, Int), String] =
      meta.indexes.map(m => (m.shard, m.segment) -> m.path).toMap
    val segB = spark.sparkContext.broadcast(meta.segmenter)
    val pathsB = spark.sparkContext.broadcast(paths)

    // Route: all shards × the segmenter's query segments (virtual spill).
    val routed: Dataset[TaggedRow] = queries.flatMap { q =>
      val segs = segB.value.routeQuery(q.vec)
      for {
        s <- 0 until shards
        g <- segs
        if pathsB.value.contains((s, g)) // empty partitions have no index
      } yield TaggedRow(q.qid, q.vec, s, g)
    }

    val ef = math.max(efSearch, kShard)
    val kPartial = kShard
    val rawHits: Dataset[Hit] = Dataflow.bySlot(routed, nSeg, numExecutors) {
      case ((s, g), qs) =>
        val idx = Indexer.readIndexFile(pathsB.value((s, g)))
        qs.iterator.flatMap { case (qid, vec) =>
          idx.search(vec, kPartial, ef).iterator.map(n => Hit(qid, s, g, n.id, n.dist))
        }
    }

    Dataflow.checkpointed(rawHits.toDF(), checkpointDir, "partial_hits")(mergeHits(_, kShard, topK))
  }

  /** Two-level merge (§5.3): segment hits → per-shard top `kShard`
    * (deduplicating ids that physical spill stored in several segments),
    * then shard results → global top `topK`.
    *
    * @param hits DataFrame with columns (qid, shard, segment, id, dist)
    * @return DataFrame (qid, id, dist, rank)
    */
  def mergeHits(hits: DataFrame, kShard: Int, topK: Int): DataFrame = {
    // Level 1: within (query, shard) — physical spill can surface the same
    // id from several segments; keep its best distance, then the shard's top.
    val shardLevel = hits
      .groupBy("qid", "shard", "id")
      .agg(min("dist").as("dist"))
      .withColumn("shard_rank",
        row_number().over(Window.partitionBy("qid", "shard").orderBy(col("dist"), col("id"))))
      .filter(col("shard_rank") <= kShard)

    // Level 2: across shards — the broker-side merge.
    Dataflow.topKPerQuery(shardLevel, topK)
  }
}
