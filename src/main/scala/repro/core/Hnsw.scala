package repro.core

import java.io.{DataInputStream, DataOutputStream, ByteArrayInputStream, ByteArrayOutputStream}
import java.nio.ByteBuffer

/** Tunable parameters of an HNSW index (Malkov & Yashunin 2016, §3 of the
  * LANNS paper). The defaults are §6.1's setup, which the tables and jobs use.
  *
  * @param m              max connections per node on layers > 0; layer 0
  *                       allows 2·m (the standard maxM0 rule)
  * @param efConstruction beam width of the candidate search during insertion
  * @param efSearch       beam width at query time, stored with the index
  * @param seed           seed of the level-assignment RNG, so builds are
  *                       deterministic given an insertion order
  */
final case class HnswParams(
    m: Int = 16,
    efConstruction: Int = 120,
    efSearch: Int = 150,
    seed: Long = 42L,
)

/** A Hierarchical Navigable Small World graph index over dense float vectors.
  *
  * This is the per-(shard, segment) building block of LANNS: a multi-layer
  * proximity graph where each node gets a random maximum layer drawn from an
  * exponential distribution with scale 1/ln(m). Insertion descends from the
  * entry point to the node's top layer by beam searches of width 1 (greedy
  * descent, Algorithms 1 and 5 of the HNSW paper), then runs a beam search of
  * width `efConstruction` on each layer downward, connecting the node to
  * neighbors chosen by the select-neighbors *heuristic* (Algorithm 4 of the
  * HNSW paper: a candidate is kept only if it is closer to the base point
  * than to every already-selected neighbor, which preserves graph
  * navigability in clustered data).
  *
  * Storage is flat: all vectors in one `Array[Float]` of n·dim, in the
  * distance's prepared form (unit length for cosine, so a cosine distance is
  * `1 − dot`); the neighbor lists of every layer in one array at a fixed
  * stride of 2m+1 (the layer-0 cap plus room for one back-link before
  * re-pruning), with a count per list. A node's lists are consecutive,
  * layer 0 first, so its list on layer l is list `first(node) + l`; lists
  * above layer 0 are capped at m. Each neighbor's distance to the node is
  * kept next to its id, so re-pruning an overfull list after a back-link
  * scores only candidate pairs, never the list against its owner again.
  *
  * Each list also keeps its heuristic *split*: the heuristic writes the
  * candidates it kept, then the pruned ones it backfilled, both in walk
  * order, and the split counts the kept ones. Only kept entries prune, so
  * dropping pruned candidates changes no other entry's class: a fresh
  * heuristic pass over the stored list, stably sorted by distance (which
  * puts kept entries before pruned ones of equal distance), classifies it
  * exactly as the split says. A back-link therefore re-prunes incrementally
  * and still writes the list a full pass would write: entries ahead of the
  * new neighbor keep their class for free, and behind it only what the new
  * neighbor can change is re-checked (see [[selectHeuristic]]). The split is
  * build-time state, not serialized: a list that grew by a plain append is
  * unclassified (−1) until its next full pass. Neighbour distances exist
  * only in a built index; one read from a file is read-only (LANNS builds
  * each index once in a Spark task, then only searches it, §5.2–5.3).
  *
  * Thread safety: `add` needs a single owner, and no search may run while an
  * `add` is in progress (the LANNS indexer builds each index inside a single
  * Spark task). Once adds have stopped, any number of threads may search one
  * index concurrently: each search uses its own thread's visited buffer and
  * heaps, and reads the index without writing to it.
  */
final class HnswIndex private (
    val dim: Int,
    val distance: Distance,
    val params: HnswParams,
) extends Serializable {
  import HnswIndex.{Kept, Pruned, Scratch, Unknown, scratch}

  private val m0     = 2 * params.m
  private val stride = m0 + 1

  private var n      = 0
  private var ids    = new Array[Long](0)
  private var levels = new Array[Int](0)
  private var first  = new Array[Int](0)
  private var vecs   = new Array[Float](0)
  // List li (node i's list on layer l is li = first(i) + l): neighbors at
  // links[li·stride, li·stride + deg(li)), their distances to the list's
  // node at the same offsets of dists, the heuristic split at split(li).
  private var lists  = 0
  private var deg    = new Array[Int](0)
  private var split  = new Array[Int](0)
  private var links  = new Array[Int](0)
  private var dists  = new Array[Double](0)
  // Set by readFrom: the index has no distances and rejects add.
  private var loaded = false

  private var entry: Int    = -1
  private var topLevel: Int = -1

  private val rng = new java.util.Random(params.seed)
  private val mL  = HnswIndex.levelMultiplier(params.m)

  /** Number of indexed vectors. */
  def size: Int = n

  /** External id of internal node `i` (introspection hook). */
  def idOf(i: Int): Long = {
    if (i < 0 || i >= n) throw new IndexOutOfBoundsException(s"node $i of $n")
    ids(i)
  }

  /** Current top layer of the hierarchy, −1 when empty. */
  def maxLevel: Int = topLevel

  /** Node count and largest adjacency-list length of every layer,
    * 0..[[maxLevel]].
    */
  def stats: HnswIndex.Stats = {
    val nodes  = new Array[Int](topLevel + 1)
    val maxDeg = new Array[Int](topLevel + 1)
    var i = 0
    while (i < n) {
      var l = 0
      while (l <= levels(i)) {
        nodes(l) += 1
        maxDeg(l) = math.max(maxDeg(l), deg(first(i) + l))
        l += 1
      }
      i += 1
    }
    HnswIndex.Stats(nodes.toVector, maxDeg.toVector)
  }

  private def maxDegree(layer: Int): Int = if (layer == 0) m0 else params.m

  /** Distance of the prepared vector `q[qOff, qOff+dim)` to `node`. */
  private def dist(q: Array[Float], qOff: Int, node: Int): Double =
    distance.prepared(q, qOff, vecs, node * dim, dim)

  /** Beam search of width `ef` on `layer`. Leaves at most `ef` candidates in
    * `s.outIds`/`s.outDists`, by ascending distance, and returns their count.
    */
  private def searchLayer(q: Array[Float], qOff: Int, ep: Int, ef: Int, layer: Int, s: Scratch): Int = {
    val links   = this.links // held in a local: the distance calls would reload the field
    val stamp   = s.newStamp(n)
    val visited = s.visited
    val cand    = s.cand // min-heap on distance
    val res     = s.res  // max-heap: keys are negated distances
    cand.clear(); res.clear()

    val d0 = dist(q, qOff, ep)
    cand.push(ep, d0); res.push(ep, -d0); visited(ep) = stamp

    var done = false
    while (!done && cand.size > 0) {
      val c = cand.topNode; val cd = cand.topKey
      cand.pop()
      if (cd > -res.topKey && res.size >= ef) done = true // no candidate can improve the result set
      else {
        val li  = first(c) + layer
        val off = li * stride
        val cnt = deg(li)
        var i = 0
        while (i < cnt) {
          val nb = links(off + i)
          if (visited(nb) != stamp) {
            visited(nb) = stamp
            val d = dist(q, qOff, nb)
            if (res.size < ef || d < -res.topKey) {
              cand.push(nb, d)
              res.push(nb, -d)
              if (res.size > ef) res.pop()
            }
          }
          i += 1
        }
      }
    }
    val found = res.size
    s.ensureOut(found)
    var i = found - 1 // res drains farthest-first
    while (i >= 0) { s.outIds(i) = res.topNode; s.outDists(i) = -res.topKey; res.pop(); i -= 1 }
    found
  }

  /** Select-neighbors heuristic (HNSW Algorithm 4) over the `count`
    * candidates `cIds`/`cDists`, sorted by ascending distance to `node`:
    * keep a candidate only if it is closer to `node` than to every
    * already-kept neighbor, until `cap` are kept; backfill with the nearest
    * pruned candidates if fewer survive. Writes the kept candidates, then the
    * backfill, as `node`'s list on `layer` (the candidates must not alias
    * it), and records how many were kept as the list's split.
    *
    * `cPrior` gives each candidate's class in the previous pass over the same
    * list (`Kept`, `Pruned` or `Unknown`); all `Unknown` is the plain
    * heuristic. A known class skips checks whose outcome it already fixes:
    * a candidate kept before is pruned now only by a newly kept one, so it is
    * checked only against kept entries from the first newly kept onwards; a
    * candidate pruned before was pruned by a kept one ahead of it, so it
    * stays pruned, unchecked, until a previously kept candidate loses its
    * place. Every candidate therefore gets the class the plain heuristic
    * would give it.
    */
  private def selectHeuristic(node: Int, layer: Int, cIds: Array[Int], cDists: Array[Double],
                              cPrior: Array[Int], count: Int, s: Scratch): Unit = {
    val links = this.links; val dists = this.dists // locals: the distance calls would reload the fields
    val li = first(node) + layer
    val off = li * stride
    val cap = maxDegree(layer)
    s.ensurePruned(count)
    var kept = 0
    var pruned = 0
    var firstNew = cap // output slot of the first candidate kept that was not kept before
    var lost = false   // whether a candidate kept before has been pruned
    var i = 0
    while (i < count && kept < cap) {
      val c = cIds(i); val dc = cDists(i); val prior = cPrior(i)
      var good = prior != Pruned || lost
      var j = if (prior == Kept) firstNew else 0
      while (good && j < kept) {
        if (distance.prepared(vecs, c * dim, vecs, links(off + j) * dim, dim) < dc) good = false
        j += 1
      }
      if (good) {
        if (prior != Kept && firstNew == cap) firstNew = kept
        links(off + kept) = c; dists(off + kept) = dc; kept += 1
      } else {
        if (prior == Kept) lost = true
        s.prunedIds(pruned) = c; s.prunedDists(pruned) = dc; pruned += 1
      }
      i += 1
    }
    split(li) = kept
    var p = 0
    var size = kept
    while (size < cap && p < pruned) {
      links(off + size) = s.prunedIds(p); dists(off + size) = s.prunedDists(p)
      size += 1; p += 1
    }
    deg(li) = size
  }

  /** Append `nb` at distance `d` to `node`'s list on `layer`. A list that
    * overflows is re-pruned with the heuristic from the cached distances,
    * each entry carrying its class from the list's split; an append that
    * fits leaves the list unclassified. The sort is stable, so among equal
    * distances kept entries stay ahead of pruned ones and `nb` comes last:
    * the order in which the split is what a fresh pass would compute.
    */
  private def link(node: Int, layer: Int, nb: Int, d: Double, s: Scratch): Unit = {
    val li = first(node) + layer
    val off = li * stride
    val cnt = deg(li)
    links(off + cnt) = nb; dists(off + cnt) = d
    val cap = maxDegree(layer)
    if (cnt + 1 <= cap) { deg(li) = cnt + 1; split(li) = Unknown }
    else {
      // stable insertion sort of the list by distance into scratch
      val k = split(li)
      s.ensureTmp(cnt + 1)
      val tIds = s.tmpIds; val tDists = s.tmpDists; val tPrior = s.tmpPrior
      var i = 0
      while (i <= cnt) {
        val id = links(off + i); val di = dists(off + i)
        val pi = if (k < 0 || i == cnt) Unknown else if (i < k) Kept else Pruned
        var j = i - 1
        while (j >= 0 && tDists(j) > di) {
          tIds(j + 1) = tIds(j); tDists(j + 1) = tDists(j); tPrior(j + 1) = tPrior(j); j -= 1
        }
        tIds(j + 1) = id; tDists(j + 1) = di; tPrior(j + 1) = pi
        i += 1
      }
      selectHeuristic(node, layer, tIds, tDists, tPrior, cnt + 1, s)
    }
  }

  /** Grow every per-node array to hold `cap` nodes. */
  private def reserve(cap: Int): Unit = {
    ids    = java.util.Arrays.copyOf(ids, cap)
    levels = java.util.Arrays.copyOf(levels, cap)
    first  = java.util.Arrays.copyOf(first, cap)
    vecs   = java.util.Arrays.copyOf(vecs, cap * dim)
  }

  /** Allocate node `n` with the given id and level, and its empty lists on
    * layers 0..level; the caller fills its vector.
    */
  private def appendNode(id: Long, level: Int): Int = {
    if (n == ids.length) reserve(math.max(16, 2 * n))
    val li = lists
    lists += level + 1
    if (lists > deg.length) {
      val cap = math.max(lists, math.max(16, 2 * deg.length))
      deg   = java.util.Arrays.copyOf(deg, cap)
      split = java.util.Arrays.copyOf(split, cap)
      links = java.util.Arrays.copyOf(links, cap * stride)
      if (!loaded) dists = java.util.Arrays.copyOf(dists, cap * stride)
    }
    java.util.Arrays.fill(split, li, lists, Unknown)
    val node = n
    ids(node) = id; levels(node) = level; first(node) = li
    n += 1
    node
  }

  /** Insert one vector. Duplicate external ids are allowed: each copy is
    * indexed as its own node, and a search can return both.
    *
    * @throws IllegalStateException on an index read from a file
    */
  def add(id: Long, v: Array[Float]): Unit = {
    if (loaded) throw new IllegalStateException("an index read from a file is read-only")
    require(v.length == dim, s"vector dim ${v.length} != index dim $dim")
    val level = HnswIndex.levelOf(rng.nextDouble(), mL)
    val node  = appendNode(id, level)
    val qOff  = node * dim
    System.arraycopy(distance.prepare(v), 0, vecs, qOff, dim)

    if (entry < 0) { entry = node; topLevel = level; return }

    val s  = scratch.get()
    var ep = entry
    var l  = topLevel
    while (l > level) { searchLayer(vecs, qOff, ep, 1, l, s); ep = s.outIds(0); l -= 1 }

    l = math.min(level, topLevel)
    while (l >= 0) {
      val found = searchLayer(vecs, qOff, ep, params.efConstruction, l, s)
      ep = s.outIds(0)
      s.ensureTmp(found)
      java.util.Arrays.fill(s.tmpPrior, 0, found, Unknown)
      selectHeuristic(node, l, s.outIds, s.outDists, s.tmpPrior, found, s)
      val li = first(node) + l
      val off = li * stride
      var i = 0
      while (i < deg(li)) { link(links(off + i), l, node, dists(off + i), s); i += 1 }
      l -= 1
    }

    if (level > topLevel) { entry = node; topLevel = level }
  }

  /** Top-`k` approximate nearest neighbors of `q` from a beam of width
    * `max(ef, k)`: the beam's nodes cut by a [[TopK]] with no id scan, so
    * nodes sharing an external id stay separate, drained in
    * [[TopK.before]] order (ascending distance, ties by external id). A `k`
    * or `ef` below 1 is rejected. Safe to call from several threads at once
    * (see the class doc).
    */
  def search(q: Array[Float], k: Int, ef: Int = params.efSearch): Array[Neighbor] = {
    require(k >= 1, s"k must be >= 1, got $k")
    require(ef >= 1, s"ef must be >= 1, got $ef")
    if (n == 0) return Array.empty
    require(q.length == dim, s"query dim ${q.length} != index dim $dim")
    val beam = math.max(ef, k)
    val qp = distance.prepare(q)
    val s  = scratch.get()
    var ep = entry
    var l  = topLevel
    while (l > 0) { searchLayer(qp, 0, ep, 1, l, s); ep = s.outIds(0); l -= 1 }
    val found = searchLayer(qp, 0, ep, beam, 0, s)
    val top = new TopK(math.min(k, found))
    var i = 0
    while (i < found) { top.offer(s.outDists(i), ids(s.outIds(i)), scan = false); i += 1 }
    top.drain()
  }

  /** Serialize to a binary stream (index + vectors + metadata), the unit the
    * LANNS indexer persists per (shard, segment). Vectors are written in the
    * distance's prepared form.
    */
  def writeTo(out: DataOutputStream): Unit = {
    out.writeInt(HnswIndex.Magic)
    out.writeInt(dim)
    out.writeUTF(distance.name)
    out.writeInt(params.m); out.writeInt(params.efConstruction)
    out.writeInt(params.efSearch); out.writeLong(params.seed)
    out.writeInt(n); out.writeInt(entry); out.writeInt(topLevel)
    var buf = ByteBuffer.allocate(0)
    var i = 0
    while (i < n) {
      val level = levels(i)
      var bytes = 12 + 4 * dim + 4 * (level + 1)
      var l = 0
      while (l <= level) { bytes += 4 * deg(first(i) + l); l += 1 }
      if (buf.capacity < bytes) buf = ByteBuffer.allocate(math.max(bytes, 2 * buf.capacity))
      buf.clear()
      buf.putLong(ids(i)).putInt(level)
      var j = 0
      while (j < dim) { buf.putFloat(vecs(i * dim + j)); j += 1 }
      l = 0
      while (l <= level) {
        val li = first(i) + l
        val cnt = deg(li)
        buf.putInt(cnt)
        var t = 0
        while (t < cnt) { buf.putInt(links(li * stride + t)); t += 1 }
        l += 1
      }
      out.write(buf.array, 0, buf.position)
      i += 1
    }
  }

  /** Serialize to a byte array (convenience over [[writeTo]]). */
  def toBytes: Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val dos = new DataOutputStream(bos)
    writeTo(dos); dos.flush()
    bos.toByteArray
  }
}

object HnswIndex {
  // "LNS2": files store prepared (for cosine, unit) vectors. Files of the
  // raw-vector format ("LANS") are rejected, not searched with wrong distances.
  private val Magic = 0x4C4E5332

  // A list entry's class in the heuristic pass that wrote the list.
  private final val Unknown = -1
  private final val Pruned  = 0
  private final val Kept    = 1

  /** mL = 1 / ln(max(2, m)), the level multiplier of an index of this `m`. */
  private def levelMultiplier(m: Int): Double = 1.0 / math.log(math.max(2, m).toDouble)

  /** The level `add` draws from a uniform `u` in [0, 1): ⌊−ln(u)·mL⌋. At
    * u = 0 it is the highest level an index can hold (249 at m 16), the
    * bound `readFrom` puts on a file's top level.
    */
  private def levelOf(u: Double, mL: Double): Int = math.floor(-math.log(u + 1e-300) * mL).toInt

  /** Per-layer shape of an index: `nodesPerLayer(l)` nodes reach layer `l`,
    * and no list on layer `l` is longer than `maxDegreePerLayer(l)`.
    */
  final case class Stats(nodesPerLayer: IndexedSeq[Int], maxDegreePerLayer: IndexedSeq[Int])

  /** Binary min-heap of (node, key) pairs over parallel primitive arrays. */
  private final class NodeHeap {
    private var nodes = new Array[Int](64)
    private var keys  = new Array[Double](64)
    var size = 0

    def clear(): Unit = size = 0
    def topNode: Int = nodes(0)
    def topKey: Double = keys(0)

    def push(node: Int, key: Double): Unit = {
      if (size == nodes.length) {
        nodes = java.util.Arrays.copyOf(nodes, 2 * size)
        keys = java.util.Arrays.copyOf(keys, 2 * size)
      }
      var i = size
      size += 1
      while (i > 0 && keys((i - 1) >>> 1) > key) {
        val p = (i - 1) >>> 1
        nodes(i) = nodes(p); keys(i) = keys(p)
        i = p
      }
      nodes(i) = node; keys(i) = key
    }

    def pop(): Unit = {
      size -= 1
      if (size > 0) {
        val node = nodes(size); val key = keys(size)
        var i = 0
        var done = false
        while (!done) {
          var c = 2 * i + 1
          if (c >= size) done = true
          else {
            if (c + 1 < size && keys(c + 1) < keys(c)) c += 1
            if (keys(c) < key) { nodes(i) = nodes(c); keys(i) = keys(c); i = c }
            else done = true
          }
        }
        nodes(i) = node; keys(i) = key
      }
    }
  }

  /** One thread's working memory for searches and inserts on any index:
    * visited marks by stamp (O(1) clear between beam searches), the two
    * beam-search heaps and buffers for results and neighbor selection.
    */
  private final class Scratch {
    var visited = new Array[Int](0)
    private var stamp = 0
    val cand = new NodeHeap
    val res  = new NodeHeap
    var outIds      = new Array[Int](0)
    var outDists    = new Array[Double](0)
    var tmpIds      = new Array[Int](0)
    var tmpDists    = new Array[Double](0)
    var tmpPrior    = new Array[Int](0)
    var prunedIds   = new Array[Int](0)
    var prunedDists = new Array[Double](0)

    /** A fresh stamp for a search over `n` nodes. */
    def newStamp(n: Int): Int = {
      if (visited.length < n) { visited = new Array[Int](math.max(n, 2 * visited.length)); stamp = 0 }
      if (stamp == Int.MaxValue) { java.util.Arrays.fill(visited, 0); stamp = 0 }
      stamp += 1
      stamp
    }

    def ensureOut(k: Int): Unit = if (outIds.length < k) {
      outIds = new Array[Int](2 * k); outDists = new Array[Double](2 * k)
    }
    def ensureTmp(k: Int): Unit = if (tmpIds.length < k) {
      tmpIds = new Array[Int](2 * k); tmpDists = new Array[Double](2 * k); tmpPrior = new Array[Int](2 * k)
    }
    def ensurePruned(k: Int): Unit = if (prunedIds.length < k) {
      prunedIds = new Array[Int](2 * k); prunedDists = new Array[Double](2 * k)
    }
  }

  private val scratch = ThreadLocal.withInitial[Scratch](() => new Scratch)

  /** Create an empty index. */
  def empty(dim: Int, distance: Distance, params: HnswParams): HnswIndex =
    new HnswIndex(dim, distance, params)

  /** Build an index from an iterator of (id, vector) pairs. */
  def build(dim: Int, distance: Distance, params: HnswParams,
            items: Iterator[(Long, Array[Float])]): HnswIndex = {
    val idx = empty(dim, distance, params)
    items.foreach { case (id, v) => idx.add(id, v) }
    idx
  }

  /** Deserialize a read-only index written with [[HnswIndex.writeTo]].
    * Throws `IllegalArgumentException` on a bad magic or header (among them
    * a top level above any `add` can draw), a node above the top level, an
    * entry point below it, or a link out of the index or below its layer.
    */
  def readFrom(in: DataInputStream): HnswIndex = {
    val magic = in.readInt()
    require(magic == Magic, f"bad index file magic 0x$magic%08x (expected 0x$Magic%08x)")
    val dim  = in.readInt()
    val dist = Distance.of(in.readUTF())
    val params = HnswParams(in.readInt(), in.readInt(), in.readInt(), in.readLong())
    val n = in.readInt(); val entry = in.readInt(); val top = in.readInt()
    require(dim >= 0 && n >= 0, s"bad index header: dim $dim, size $n")
    if (n == 0) require(entry == -1 && top == -1, s"bad index header: size 0, entry $entry, top level $top")
    else require(entry >= 0 && entry < n, s"bad index header: entry $entry of $n nodes")
    val maxLevel = levelOf(0.0, levelMultiplier(params.m))
    require(top <= maxLevel, s"bad index header: top level $top above $maxLevel, the highest add draws at m ${params.m}")
    val idx = new HnswIndex(dim, dist, params)
    idx.entry = entry; idx.topLevel = top
    idx.loaded = true
    idx.reserve(n)
    val bytes = new Array[Byte](4 * math.max(dim, idx.stride))
    val buf = ByteBuffer.wrap(bytes)
    val linkedOn = Array.fill(n)(-1) // the highest layer on which a node is linked to
    var i = 0
    while (i < n) {
      val id    = in.readLong()
      val level = in.readInt()
      require(level >= 0 && level <= top, s"bad level $level of node $i (top level $top)")
      val node = idx.appendNode(id, level)
      in.readFully(bytes, 0, 4 * dim)
      buf.clear()
      var j = 0
      while (j < dim) { idx.vecs(node * dim + j) = buf.getFloat(); j += 1 }
      var l = 0
      while (l <= level) {
        val cnt = in.readInt()
        require(cnt >= 0 && cnt <= idx.maxDegree(l), s"bad degree $cnt of node $i on layer $l")
        in.readFully(bytes, 0, 4 * cnt)
        buf.clear()
        val li = idx.first(node) + l
        var t = 0
        while (t < cnt) {
          val nb = buf.getInt()
          require(nb >= 0 && nb < n, s"node $i on layer $l links to node $nb of $n")
          idx.links(li * idx.stride + t) = nb; linkedOn(nb) = math.max(linkedOn(nb), l); t += 1
        }
        idx.deg(li) = cnt
        l += 1
      }
      i += 1
    }
    idx.links = java.util.Arrays.copyOf(idx.links, idx.lists * idx.stride) // read-only: no room to grow
    if (n > 0) require(idx.levels(entry) == top, s"entry $entry has level ${idx.levels(entry)}, not the top level $top")
    i = 0
    while (i < n) {
      require(linkedOn(i) <= idx.levels(i), s"node $i of level ${idx.levels(i)} is linked to on layer ${linkedOn(i)}")
      i += 1
    }
    idx
  }

  /** Deserialize from a byte array. */
  def fromBytes(bytes: Array[Byte]): HnswIndex =
    readFrom(new DataInputStream(new ByteArrayInputStream(bytes)))
}
