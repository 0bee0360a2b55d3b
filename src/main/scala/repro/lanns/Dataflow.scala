package repro.lanns

import java.io.File
import org.apache.spark.sql.{DataFrame, Dataset, Encoder}
import org.apache.spark.sql.functions.{col, udf}
import repro.core.{QueryRow, TaggedRow}

/** The steps the build (§5.2), query (§5.3) and brute-force (§5.4) jobs
  * share: input validation, query broadcast, slotting and checkpointed merging.
  */
private[lanns] object Dataflow {

  /** Rejects a vector an index or brute force cannot score: one whose
    * length is not `dim`, or with a NaN or ±Inf component. The error names
    * it as `"$kind $key"` (e.g. "query qid 7", "row id 7").
    */
  def checkVector(kind: String, key: Long, vec: Array[Float], dim: Int): Unit = {
    require(vec.length == dim, s"$kind $key has ${vec.length} components, expected $dim")
    val bad = vec.indexWhere(x => !java.lang.Float.isFinite(x))
    require(bad < 0, s"$kind $key has non-finite component ${vec(bad)} at $bad")
  }

  /** Collects `queries`, checks each on the driver against `dim` (default:
    * the first query's length) with [[checkVector]], and broadcasts them whole
    * to every task (§5.4). Returns the broadcast and the dimension checked.
    */
  def broadcastQueries(queries: Dataset[QueryRow], dim: Option[Int]) = {
    val qs = queries.collect()
    val d = dim.getOrElse(qs.headOption.fold(0)(_.vec.length))
    qs.foreach(q => checkVector("query qid", q.qid, q.vec, d))
    (queries.sparkSession.sparkContext.broadcast(qs), d)
  }

  /** The slot of group (shard, segment): the one rule the build and the query place groups by. */
  def slotOf(shard: Int, segment: Int, numSegments: Int, numExecutors: Int): Int =
    (shard * numSegments + segment) % numExecutors

  /** Partition tagged rows by [[slotOf]], exactly one slot per task, and
    * run `perGroup` on each of a task's (shard, segment) groups in turn, with
    * the group's (key, vector) rows in arrival order.
    */
  def bySlot[A: Encoder](rows: Dataset[TaggedRow], numSegments: Int, numExecutors: Int)(
      perGroup: ((Int, Int), Seq[(Long, Array[Float])]) => Iterator[A]): Dataset[A] =
    rows
      .repartitionById(numExecutors,
        udf(slotOf(_: Int, _: Int, numSegments, numExecutors)).apply(col("shard"), col("segment")))
      .mapPartitions(_.toSeq.groupBy(t => (t.shard, t.segment)).iterator.flatMap {
        case (group, ts) => perGroup(group, ts.map(t => (t.key, t.vec)))
      })

  /** `merge(hits)`, with the partial hits checkpointed when `checkpointDir`
    * is set (§5.3.1): they are written to `<checkpointDir>/<name>` and read
    * back, so completed tasks' results survive later executor loss. The
    * merge is then materialized, because the temp files are deleted as soon
    * as merging finishes. Only `<name>` is deleted; `checkpointDir` itself
    * goes only if that leaves it empty, so a shared directory survives.
    */
  def checkpointed(hits: DataFrame, checkpointDir: Option[String], name: String)(
      merge: DataFrame => DataFrame): DataFrame = checkpointDir match {
    case None => merge(hits)
    case Some(dir) =>
      val path = s"$dir/$name"
      hits.write.mode("overwrite").parquet(path)
      val out = merge(hits.sparkSession.read.parquet(path)).cache()
      out.count()
      deleteTree(new File(path))
      new File(dir).delete() // fails, leaving it, unless empty
      out
  }

  private def deleteTree(f: File): Unit = {
    if (f.isDirectory) f.listFiles().foreach(deleteTree)
    f.delete(); ()
  }
}
