package repro.lanns

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, File,
                FileInputStream, IOException, InputStream, ObjectInputStream, ObjectOutputStream,
                OutputStream}
import java.nio.file.{Files, Paths, StandardCopyOption}
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
    * or moved index directory reads its own files. The file is replaced
    * atomically ([[Indexer.writeFile]]): a failed write leaves the previous
    * metadata in place.
    */
  def write(meta: LannsMeta, indexDir: String): Unit = {
    val dir = Paths.get(indexDir).toAbsolutePath
    val relative = meta.copy(indexes = meta.indexes.map(im =>
      im.copy(path = dir.relativize(Paths.get(im.path).toAbsolutePath).toString)))
    Indexer.writeFile(new File(indexDir, FileName).getPath, "index metadata") { out =>
      val obj = new ObjectOutputStream(out)
      obj.writeObject(relative)
      obj.flush()
    }
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
    require(numShards >= 1, s"numShards must be >= 1, got $numShards")
    require(numExecutors >= 1, s"numExecutors must be >= 1, got $numExecutors")
    val spark = data.sparkSession
    import spark.implicits._

    val tagged: Dataset[TaggedRow] = data.flatMap { r =>
      Dataflow.checkVector("row id", r.id, r.vec, dim)
      val shard = Sharding.shardOf(r.id, numShards)
      segmenter.routeData(r.id, r.vec).map(seg => TaggedRow(r.id, r.vec, shard, seg))
    }

    val metas: Array[IndexMeta] = Dataflow.bySlot(tagged, segmenter.numSegments, numExecutors) {
      case ((s, g), rows) =>
        val t0 = System.nanoTime()
        val idx = HnswIndex.build(dim, distance, params, rows.sortBy(_._1).iterator)
        val path = indexPath(outDir, s, g)
        writeIndexFile(idx, path)
        Iterator.single(IndexMeta(s, g, rows.length.toLong, path, (System.nanoTime() - t0) / 1000000L))
    }.collect()

    val meta = LannsMeta(dim, numShards, distance.name, params, segmenter,
      metas.sortBy(m => (m.shard, m.segment)).toSeq)
    LannsMeta.write(meta, outDir)
    meta
  }

  /** Canonical on-disk location of one (shard, segment) index. */
  def indexPath(outDir: String, shard: Int, segment: Int): String =
    s"$outDir/shard_$shard/segment_$segment.hnsw"

  /** Serialize one index to the (HDFS-substitute) filesystem, executor-side,
    * replacing the file atomically ([[writeFile]]).
    */
  def writeIndexFile(idx: HnswIndex, path: String): Unit =
    writeFile(path, "index file")(out => idx.writeTo(new DataOutputStream(out)))

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

  /** Write the file at `path` with `write`, creating its directory, so that
    * `path` holds either its previous content or all of the new one: `write`
    * fills a fresh temporary file in the same directory (unique, so two
    * attempts at one task never share it), which is then moved over `path`
    * in one atomic rename. On any failure the temporary file is deleted and
    * the failure rethrown as an `IOException` that names `"$what $path"`.
    */
  private[lanns] def writeFile(path: String, what: String)(write: OutputStream => Unit): Unit = {
    val target = Paths.get(path).toAbsolutePath
    Files.createDirectories(target.getParent)
    val tmp = Files.createTempFile(target.getParent, s".${target.getFileName}.", ".tmp")
    try {
      val out = new BufferedOutputStream(Files.newOutputStream(tmp))
      try write(out)
      finally out.close()
      Files.move(tmp, target, StandardCopyOption.ATOMIC_MOVE, StandardCopyOption.REPLACE_EXISTING)
    } catch {
      case e: Exception =>
        Files.deleteIfExists(tmp)
        throw new IOException(s"cannot write $what $path: ${e.getMessage}", e)
    }
  }
}
