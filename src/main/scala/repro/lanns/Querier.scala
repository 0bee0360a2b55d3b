package repro.lanns

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions.{array, col}
import repro.core.{HitList, QueryRow, RankedHit, TopK}

/** Distributed querying over a two-level partitioned index (§5.3, Figure 7).
  *
  * The query set is checked and broadcast whole (§5.4), and one task runs
  * per executor slot, over the (shard, segment) indexes [[Dataflow.slotOf]]
  * places there. It routes the queries (every shard; the segmenter's
  * virtual-spill segment set), loads each of its indexes once, searches the
  * queries routed to it, and emits one [[HitList]] per (query, routed
  * group). Merging is two-level, mirroring the online system: segment hits
  * merge *within* a shard first (keeping the perShardTopK best, §5.3.2),
  * then shard results merge globally to the final topK. The lists are
  * shuffled by qid at most once (not at all when E = 1), and each query's
  * group then runs both cuts as two levels of [[repro.core.TopK]].
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
    * @param efSearch    HNSW beam width (an index search widens it to the per-shard k)
    * @param confidence  topK.confidence for the perShardTopK reduction;
    *                    None disables it (each shard returns topK)
    * @param numExecutors parallelism slots emulating executor counts
    * @param checkpointDir when set, partial results are persisted to
    *                    `<dir>/partial_hits` and reloaded before merging;
    *                    only that subdirectory is deleted afterwards
    * @return DataFrame (qid, id, dist, rank) with rank in 1..topK
    * @throws IllegalArgumentException if topK, efSearch or numExecutors is
    *         below 1, or, on the driver, if a query's length is not
    *         `meta.dim` or it has a NaN or ±Inf component (naming its qid)
    */
  def search(
      queries: Dataset[QueryRow],
      meta: LannsMeta,
      topK: Int,
      efSearch: Int,
      confidence: Option[Double] = None,
      numExecutors: Int,
      checkpointDir: Option[String] = None,
  ): DataFrame = {
    require(topK >= 1, s"topK must be >= 1, got $topK")
    require(efSearch >= 1, s"efSearch must be >= 1, got $efSearch")
    require(numExecutors >= 1, s"numExecutors must be >= 1, got $numExecutors")
    val spark = queries.sparkSession
    import spark.implicits._

    val kShard = confidence.map(PerShardTopK(topK, meta.numShards, _)).getOrElse(topK)
    val (qB, _) = Dataflow.broadcastQueries(queries, Some(meta.dim))

    // One task per slot; `meta`, segmenter included, travels with the task.
    val lists: Dataset[HitList] = spark.range(0, numExecutors, 1, numExecutors).flatMap { slot =>
      val qs = qB.value
      lazy val segs = qs.map(q => meta.segmenter.routeQuery(q.vec))
      meta.indexes.iterator // empty groups have no index
        .filter(im => Dataflow.slotOf(im.shard, im.segment, meta.numSegments, numExecutors) == slot)
        .flatMap { im =>
          lazy val idx = Indexer.readIndexFile(im.path)
          qs.indices.iterator.filter(i => segs(i).contains(im.segment)).map { i =>
            val found = idx.search(qs(i).vec, kShard, efSearch)
            HitList(qs(i).qid, im.shard, found.map(_.id), found.map(_.dist))
          }
        }
    }

    Dataflow.checkpointed(lists.toDF(), checkpointDir, "partial_hits")(mergeLists(_, kShard, topK))
  }

  /** The two-level merge of [[mergeLists]] for callers that hold one row
    * per hit: each hit becomes a one-element list, in one projection with no
    * shuffle, so the result is exactly the list merge's on the same hits.
    *
    * @param hits DataFrame with columns (qid, shard, id, dist), e.g. [[repro.core.Hit]] rows
    * @return DataFrame (qid, id, dist, rank)
    * @throws IllegalArgumentException if kShard or topK is below 1
    */
  def mergeHits(hits: DataFrame, kShard: Int, topK: Int): DataFrame =
    mergeLists(hits.select(col("qid"), col("shard"),
      array(col("id")).as("ids"), array(col("dist")).as("dists")), kShard, topK)

  /** Two-level merge (§5.3): segment hits → per-shard top `kShard`, then
    * shard results → global top `topK`. Lists are grouped by qid: one
    * shuffle, or none when they already sit in one partition, and a sort on
    * qid. Each query runs two levels of [[TopK]], each sized to the lesser
    * of its cut and the hits offered to it: per shard, one offered every hit
    * of that shard's lists, which keeps an id once, at its least distance
    * (an id that occurs in several input rows, such as brute-force
    * partitions or an HNSW group with duplicate ids, can arrive more than
    * once); then one offered every shard's survivors, which does not
    * deduplicate ids across shards. Distances order as in Spark SQL (-0.0
    * equals 0.0, NaN after every number), ties by ascending id.
    *
    * @param lists DataFrame of [[HitList]] rows (qid, shard, ids, dists)
    * @return DataFrame (qid, id, dist, rank)
    * @throws IllegalArgumentException if kShard or topK is below 1
    */
  private[lanns] def mergeLists(lists: DataFrame, kShard: Int, topK: Int): DataFrame = {
    require(kShard >= 1, s"kShard must be >= 1, got $kShard")
    require(topK >= 1, s"topK must be >= 1, got $topK")
    import lists.sparkSession.implicits._
    lists.groupBy("qid").as[Long, HitList]
      .flatMapGroups { (qid, qLists) =>
        val survivors = qLists.toArray.groupBy(_.shard).values.toArray.map { shardLists =>
          val shardTop = new TopK(math.min(kShard, shardLists.map(_.ids.length).sum))
          shardLists.foreach { l =>
            l.ids.indices.foreach(i => shardTop.offer(l.dists(i), l.ids(i), scan = true))
          }
          shardTop.drain()
        }
        val top = new TopK(math.min(topK, survivors.map(_.length).sum))
        survivors.foreach(_.foreach(n => top.offer(n.dist, n.id, scan = false)))
        top.drain().iterator.zipWithIndex.map { case (n, r) => RankedHit(qid, n.id, n.dist, r + 1) }
      }
      .toDF()
  }
}
