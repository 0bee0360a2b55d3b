package repro.lanns

import java.io.File
import org.apache.spark.sql.{DataFrame, Dataset, Encoder}
import org.apache.spark.sql.functions.expr
import repro.core.TaggedRow
import scala.collection.mutable

/** The steps the build (§5.2), query (§5.3) and brute-force (§5.4) jobs
  * share: input validation, executor slotting and checkpointed merging.
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

  /** Pack tagged rows into `numExecutors` *slots* — range partitions over
    * `(shard·m + segment) mod E` — and run `perGroup` on each of a task's
    * (shard, segment) groups in turn, with the group's (key, vector) rows in
    * arrival order. That is an E-executor cluster's schedule only while each
    * slot gets a partition of its own, which `repartitionByRange` does not
    * promise: its bounds come from a sample, so a slot with less than 1/E of
    * the rows can share a task with another slot.
    */
  def bySlot[A: Encoder](rows: Dataset[TaggedRow], numSegments: Int, numExecutors: Int)(
      perGroup: ((Int, Int), mutable.ArrayBuffer[(Long, Array[Float])]) => Iterator[A]): Dataset[A] =
    rows
      .repartitionByRange(numExecutors, expr(s"(shard * $numSegments + segment) % $numExecutors"))
      .mapPartitions { it =>
        val groups = mutable.LinkedHashMap.empty[(Int, Int), mutable.ArrayBuffer[(Long, Array[Float])]]
        it.foreach { t =>
          groups.getOrElseUpdate((t.shard, t.segment),
            new mutable.ArrayBuffer[(Long, Array[Float])]) += ((t.key, t.vec))
        }
        groups.iterator.flatMap { case (group, rs) => perGroup(group, rs) }
      }

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
