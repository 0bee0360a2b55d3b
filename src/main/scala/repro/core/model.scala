package repro.core

/** A dense vector row of the indexable dataset.
  *
  * @param id  external document key (used for sharding and recall joins)
  * @param vec dense embedding, `dim` floats
  */
final case class VecRow(id: Long, vec: Array[Float])

/** A query vector.
  *
  * @param qid query key (joins results with ground truth)
  * @param vec dense embedding
  */
final case class QueryRow(qid: Long, vec: Array[Float])

/** A document tagged by the build with its two-level partition: (shard,
  * segment). `key` is the document id; physical spill can emit it under
  * several segments.
  */
final case class TaggedRow(key: Long, vec: Array[Float], shard: Int, segment: Int)

/** One partial search result produced inside an executor. */
final case class Hit(qid: Long, shard: Int, segment: Int, id: Long, dist: Double)

/** One partial top-k list produced inside an executor: the neighbours one
  * task found for query `qid` in one (shard, segment) group or one data
  * partition, `ids(i)` at distance `dists(i)`, in [[TopK.before]] order
  * (ascending distance, ties by ascending id). Every producer keeps that
  * order: `HnswIndex.search` and `BruteForce.topK` drain a [[TopK]], and
  * `Querier.mergeHits` makes one-hit lists. The merge reads a list as the
  * hits (qid, shard, id, dist) it holds, a sorted run it stops offering at
  * its first rejected hit.
  */
final case class HitList(qid: Long, shard: Int, ids: Array[Long], dists: Array[Double])

/** One row of a merged query result: `id` is the `rank`-th nearest
  * neighbour of query `qid`, at distance `dist`.
  */
final case class RankedHit(qid: Long, id: Long, dist: Double, rank: Int)

/** Metadata for one per-(shard, segment) HNSW index persisted by the
  * indexer; the driver aggregates these into [[repro.lanns.LannsMeta]].
  *
  * @param buildMillis wall-clock build time of this one index inside its task
  */
final case class IndexMeta(shard: Int, segment: Int, count: Long, path: String, buildMillis: Long)

/** A scored neighbor returned by an index search. */
final case class Neighbor(id: Long, dist: Double)
