package repro.lanns

import org.apache.spark.sql.{DataFrame, Dataset}
import repro.core.{BruteForce, Distance, HitList, QueryRow, VecRow}
import scala.collection.mutable

/** Spark brute-force search (§5.4, Figure 8) — exact top-K at scale, used
  * for ground truth in all recall evaluations (the paper's "in-house Spark
  * implementation of brute-force search").
  *
  * The dataset is split across `numPartitions` tasks; the (reasonably
  * small) query set is checked and broadcast whole into every task, as the
  * querier's is. A task packs its
  * rows into flat arrays and makes one call of the blocked kernel
  * [[BruteForce.topK]] for all queries, which keeps the k nearest distinct
  * ids of its partition (an id stored twice takes one slot, at its nearest
  * copy); it emits one [[HitList]] per query. Partial results can be written
  * to the HDFS substitute and reloaded (as in Figure 8) before the final
  * per-query merge, the querier's list merge with every list on shard 0 and
  * both cuts at k: its shard level makes the same k-nearest-distinct-ids
  * cut as the kernel, with the same [[repro.core.TopK]], over all the
  * tasks' lists, so like the querier it returns an id once per query, at
  * its nearest copy.
  */
object SparkBruteForce {

  /** Exact top-`k` for each query.
    *
    * @return DataFrame (qid, id, dist, rank), rank 1..k by ascending
    *         distance, ties by id; each id at most once per query
    * @throws IllegalArgumentException if k is below 1, or, on the driver,
    *         if a query's length differs from the first query's or it has a
    *         NaN or ±Inf component (naming its qid); a row that does the same
    *         fails the job with an error naming its id
    */
  def search(
      data: Dataset[VecRow],
      queries: Dataset[QueryRow],
      k: Int,
      distance: Distance,
      numPartitions: Int,
      checkpointDir: Option[String] = None,
  ): DataFrame = {
    require(k >= 1, s"k must be >= 1, got $k")
    val spark = data.sparkSession
    import spark.implicits._

    val (qB, dim) = Dataflow.broadcastQueries(queries, None)

    val partials: Dataset[HitList] = data
      .repartition(numPartitions)
      .mapPartitions { it =>
        val qs = qB.value
        val ids = mutable.ArrayBuilder.make[Long]
        val vecs = mutable.ArrayBuilder.make[Float]
        if (qs.nonEmpty) it.foreach { r =>
          Dataflow.checkVector("row id", r.id, r.vec, dim)
          ids += r.id; vecs ++= r.vec
        }
        val idArr = ids.result()
        if (idArr.isEmpty) Iterator.empty
        else {
          val found = BruteForce.topK(idArr, vecs.result(), dim, qs.map(_.vec), k, distance)
          qs.indices.iterator.map(i => HitList(qs(i).qid, 0, found(i).map(_.id), found(i).map(_.dist)))
        }
      }

    Dataflow.checkpointed(partials.toDF(), checkpointDir, "bf_partials")(
      Querier.mergeLists(_, k, k))
  }
}
