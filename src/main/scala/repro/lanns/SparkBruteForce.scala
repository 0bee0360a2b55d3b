package repro.lanns

import org.apache.spark.sql.{DataFrame, Dataset}
import repro.core.{BruteForce, Distance, Hit, QueryRow, VecRow}

/** Spark brute-force search (§5.4, Figure 8) — exact top-K at scale, used
  * for ground truth in all recall evaluations (the paper's "in-house Spark
  * implementation of brute-force search").
  *
  * The dataset is split across `numPartitions` tasks; the (reasonably
  * small) query set is broadcast whole into every task, which keeps the k
  * nearest distinct ids of its partition ([[BruteForce.topK]]: an id stored
  * twice takes one slot, at its nearest copy). Partial results can be
  * written to the HDFS substitute and reloaded (as in Figure 8) before the
  * final per-query merge, [[Querier.mergeHits]] with every hit on shard 0:
  * like the querier, it returns an id once per query, at its nearest copy.
  */
object SparkBruteForce {

  /** Exact top-`k` for each query.
    *
    * @return DataFrame (qid, id, dist, rank), rank 1..k by ascending
    *         distance, ties by id; each id at most once per query
    */
  def search(
      data: Dataset[VecRow],
      queries: Dataset[QueryRow],
      k: Int,
      distance: Distance,
      numPartitions: Int = 8,
      checkpointDir: Option[String] = None,
  ): DataFrame = {
    val spark = data.sparkSession
    import spark.implicits._

    val qArr = queries.collect()
    val qB = spark.sparkContext.broadcast(qArr)

    val partials: Dataset[Hit] = data
      .repartition(numPartitions)
      .mapPartitions { it =>
        val items = it.map(r => (r.id, r.vec)).toArray
        if (items.isEmpty) Iterator.empty
        else qB.value.iterator.flatMap { q =>
          BruteForce.topK(items, q.vec, k, distance).iterator
            .map(n => Hit(q.qid, 0, 0, n.id, n.dist))
        }
      }

    Dataflow.checkpointed(partials.toDF(), checkpointDir, "bf_partials")(
      Querier.mergeHits(_, k, k))
  }
}
