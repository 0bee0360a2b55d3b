package repro.lanns

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions.{array, col}
import repro.core.{HitList, QueryRow, RankedHit}
import scala.collection.mutable

/** Distributed querying over a two-level partitioned index (§5.3, Figure 7).
  *
  * The query set is checked and broadcast whole (§5.4), and one task runs
  * per executor slot, over the (shard, segment) indexes [[Dataflow.slotOf]]
  * places there. It routes the queries (every shard; the segmenter's
  * virtual-spill segment set), loads each of its indexes once, searches the
  * queries routed to it, and emits one [[HitList]] per (query, routed
  * group). Merging is two-level, mirroring the online system: segment hits
  * merge *within* a shard first (keeping the perShardTopK best, §5.3.2),
  * then shard results merge globally to the final topK. Both levels run in
  * one pass per query, after at most one shuffle of the lists by qid (none
  * when E = 1).
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
    */
  def mergeHits(hits: DataFrame, kShard: Int, topK: Int): DataFrame =
    mergeLists(hits.select(col("qid"), col("shard"),
      array(col("id")).as("ids"), array(col("dist")).as("dists")), kShard, topK)

  /** Two-level merge (§5.3): segment hits → per-shard top `kShard`, then
    * shard results → global top `topK`, in one pass per query over
    * its hits ([[QueryHits]]). Lists are grouped by qid: one shuffle, or
    * none when they already sit in one partition, and a sort on qid.
    * Distances order as in Spark SQL (-0.0 equals 0.0, NaN after every
    * number), ties by ascending id. A shard keeps an id once, at its least
    * distance: an id that occurs in several input rows (brute-force
    * partitions, an HNSW group with duplicate ids) can arrive more than
    * once. Ids are not deduplicated across shards.
    *
    * @param lists DataFrame of [[HitList]] rows (qid, shard, ids, dists)
    * @return DataFrame (qid, id, dist, rank)
    */
  private[lanns] def mergeLists(lists: DataFrame, kShard: Int, topK: Int): DataFrame = {
    import lists.sparkSession.implicits._
    lists.groupBy("qid").as[Long, HitList]
      .flatMapGroups { (qid, qLists) =>
        val q = new QueryHits
        qLists.foreach(q.add)
        q.merge(qid, kShard, topK)
      }
      .toDF()
  }

  /** One query's hits, held as primitive columns in arrival order. */
  private final class QueryHits {
    private var n = 0
    private var shards = 0 // 1 + the largest shard seen; shards are >= 0
    private var shard = new Array[Int](16)
    private var id = new Array[Long](16)
    private var dist = new Array[Double](16)

    def add(l: HitList): Unit = {
      val m = l.ids.length
      if (n + m > id.length) {
        val cap = math.max(2 * id.length, n + m)
        shard = java.util.Arrays.copyOf(shard, cap)
        id = java.util.Arrays.copyOf(id, cap)
        dist = java.util.Arrays.copyOf(dist, cap)
      }
      java.util.Arrays.fill(shard, n, n + m, l.shard)
      System.arraycopy(l.ids, 0, id, n, m)
      System.arraycopy(l.dists, 0, dist, n, m)
      shards = math.max(shards, l.shard + 1)
      n += m
    }

    /** Walks the hits in (dist, id) order. The first copy of a (shard, id)
      * carries its smallest distance; it is kept while its shard has fewer
      * than `kShard` kept hits, until `topK` are kept. The kept hits are the
      * global top `topK` of the per-shard top `kShard` lists.
      */
    def merge(qid: Long, kShard: Int, topK: Int): Iterator[RankedHit] = {
      val order = Array.range(0, n)
      sort(order, new Array[Int](n), 0, n)
      val kept = new Array[Int](shards)
      // open addressing over hit indices + 1, for the (shard, id) pairs seen
      val mask = Integer.highestOneBit(n) * 4 - 1
      val seen = new Array[Int](mask + 1)
      def firstCopy(h: Int): Boolean = {
        var s = ((id(h) * 31 + shard(h)) * 0x9E3779B97F4A7C15L >>> 32).toInt & mask
        while (seen(s) != 0) {
          val o = seen(s) - 1
          if (id(o) == id(h) && shard(o) == shard(h)) return false
          s = (s + 1) & mask
        }
        seen(s) = h + 1
        true
      }
      val out = new mutable.ArrayBuffer[RankedHit](math.min(n, topK))
      var i = 0
      while (i < n && out.length < topK) {
        val h = order(i)
        if (firstCopy(h) && kept(shard(h)) < kShard) {
          kept(shard(h)) += 1
          out += RankedHit(qid, id(h), dist(h), out.length + 1)
        }
        i += 1
      }
      out.iterator
    }

    /** Spark SQL's order on (dist, id). */
    private def before(a: Int, b: Int): Boolean = {
      val c = if (dist(a) == dist(b)) 0 else java.lang.Double.compare(dist(a), dist(b))
      c < 0 || (c == 0 && id(a) < id(b))
    }

    /** Merge sort of the hit indices `ix[lo, hi)`, with `tmp` as scratch. */
    private def sort(ix: Array[Int], tmp: Array[Int], lo: Int, hi: Int): Unit =
      if (hi - lo > 1) {
        val mid = (lo + hi) >>> 1
        sort(ix, tmp, lo, mid)
        sort(ix, tmp, mid, hi)
        System.arraycopy(ix, lo, tmp, lo, hi - lo)
        var i = lo
        var j = mid
        var k = lo
        while (k < hi) {
          if (j == hi || (i < mid && !before(tmp(j), tmp(i)))) { ix(k) = tmp(i); i += 1 }
          else { ix(k) = tmp(j); j += 1 }
          k += 1
        }
      }
  }
}
