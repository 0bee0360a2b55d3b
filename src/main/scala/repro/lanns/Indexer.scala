package repro.lanns

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, File,
                FileInputStream, FileOutputStream, IOException, InputStream, ObjectInputStream,
                ObjectOutputStream}
import java.nio.file.Paths
import org.apache.spark.sql.Dataset
import repro.core.{Distance, HnswIndex, HnswParams, IndexMeta, TaggedRow, VecRow}
import repro.segment.Segmenter

/** The persisted description of a LANNS index (§5.2): partitioning scheme,
  * distance, HNSW parameters, the shared segmenter, and one [[IndexMeta]]
  * per (shard, segment) index file. Written from the driver; the querier
  * (offline) and an online searcher deserialize it so the serving
  * configuration can never drift from the build configuration.
  */
final case class LannsMeta(
    dim: Int,
    numShards: Int,
    distanceName: String,
    params: HnswParams,
    segmenter: Segmenter,
    indexes: Seq[IndexMeta],
) extends Serializable {
  def distance: Distance = Distance.of(distanceName)
  def numSegments: Int = segmenter.numSegments
  /** Total vectors indexed (counts physical-spill duplicates once per copy). */
  def totalCount: Long = indexes.map(_.count).sum
}

object LannsMeta {
  /** Metadata file name inside an index directory. */
  val FileName = "meta.bin"

  /** Read the metadata written by [[Indexer.build]], resolving each index
    * file's path against `indexDir`; a failure names the file.
    */
  def read(indexDir: String): LannsMeta = {
    val meta = Indexer.readFile(new File(indexDir, FileName).getPath, "index metadata")(
      new ObjectInputStream(_).readObject().asInstanceOf[LannsMeta])
    val dir = Paths.get(indexDir)
    meta.copy(indexes = meta.indexes.map(im => im.copy(path = dir.resolve(im.path).toString)))
  }

  /** Persist metadata from the driver (§5.2: "the associated metadata and
    * segmenter information is coupled with the index and written from the
    * driver"). Index paths are stored relative to `indexDir`, so a copied
    * or moved index directory reads its own files.
    */
  def write(meta: LannsMeta, indexDir: String): Unit = {
    new File(indexDir).mkdirs()
    val dir = Paths.get(indexDir).toAbsolutePath
    val relative = meta.copy(indexes = meta.indexes.map(im =>
      im.copy(path = dir.relativize(Paths.get(im.path).toAbsolutePath).toString)))
    val out = new ObjectOutputStream(new FileOutputStream(new File(indexDir, FileName)))
    try out.writeObject(relative)
    finally out.close()
  }
}

/** Distributed LANNS index build (§5.2, Figure 6).
  *
  * Each document is tagged with a shard id (hash of its key) and one or
  * more segment ids (the shared pre-learnt segmenter; several under
  * physical spill). Tagged rows go to `numExecutors` *slots*, one task each
  * ([[Dataflow.bySlot]]), and a task builds its (shard, segment) groups in
  * turn, as one executor of an E-executor cluster would. A group is inserted
  * in ascending id order, so its index bytes do not depend on E or on the
  * input partitioning. Every group becomes one serialized [[HnswIndex]] file
  * written from inside the executor; the driver collects the per-index
  * metadata and writes [[LannsMeta]].
  */
object Indexer {

  /** Build a two-level partitioned index under `outDir`.
    *
    * @param numExecutors parallelism slots emulating the paper's executor
    *                     counts (Tables 2/5)
    * @return the metadata also persisted at `outDir/meta.bin`, with each
    *         index file's full path (the file stores it relative to `outDir`)
    * @throws IllegalArgumentException if numShards or numExecutors is below
    *         1; a row whose length is not `dim` or that has a NaN or ±Inf
    *         component fails the job with an error naming its id
    */
  def build(
      data: Dataset[VecRow],
      dim: Int,
      numShards: Int,
      segmenter: Segmenter,
      distance: Distance,
      params: HnswParams,
      outDir: String,
      numExecutors: Int,
  ): LannsMeta = {
    require(numShards >= 1 && numExecutors >= 1)
    val spark = data.sparkSession
    import spark.implicits._

    val segB = spark.sparkContext.broadcast(segmenter)

    val tagged: Dataset[TaggedRow] = data.flatMap { r =>
      Dataflow.checkVector("row id", r.id, r.vec, dim)
      val shard = Sharding.shardOf(r.id, numShards)
      segB.value.routeData(r.id, r.vec).map(seg => TaggedRow(r.id, r.vec, shard, seg))
    }

    val metas: Array[IndexMeta] = Dataflow.bySlot(tagged, segmenter.numSegments, numExecutors) {
      case ((s, g), rows) =>
        val t0 = System.nanoTime()
        val idx = HnswIndex.build(dim, distance, params, rows.sortBy(_._1).iterator)
        val path = indexPath(outDir, s, g)
        writeIndexFile(idx, path)
        Iterator.single(IndexMeta(s, g, rows.length.toLong, path, (System.nanoTime() - t0) / 1000000L))
    }.collect()

    segB.destroy()
    val meta = LannsMeta(dim, numShards, distance.name, params, segmenter,
      metas.sortBy(m => (m.shard, m.segment)).toSeq)
    LannsMeta.write(meta, outDir)
    meta
  }

  /** Canonical on-disk location of one (shard, segment) index. */
  def indexPath(outDir: String, shard: Int, segment: Int): String =
    s"$outDir/shard_$shard/segment_$segment.hnsw"

  /** Serialize one index to the (HDFS-substitute) filesystem, executor-side. */
  def writeIndexFile(idx: HnswIndex, path: String): Unit = {
    val f = new File(path)
    Option(f.getParentFile).foreach(_.mkdirs())
    val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(f)))
    try idx.writeTo(out)
    finally out.close()
  }

  /** Load one serialized index (executor-side at query time). Any failure
    * is rethrown as an `IOException` that names `path`.
    */
  def readIndexFile(path: String): HnswIndex =
    readFile(path, "index file")(in => HnswIndex.readFrom(new DataInputStream(in)))

  /** `read` applied to the file at `path`, rethrowing any failure as an
    * `IOException` that names the file as `"$what $path"`.
    */
  private[lanns] def readFile[A](path: String, what: String)(read: InputStream => A): A =
    try {
      val in = new BufferedInputStream(new FileInputStream(path))
      try read(in)
      finally in.close()
    } catch {
      case e: Exception => throw new IOException(s"cannot load $what $path: ${e.getMessage}", e)
    }
}
