package repro.core

/** A distance function over dense float vectors.
  *
  * `apply` returns a *comparable* distance: monotone in the true metric but
  * not necessarily equal to it (Euclidean uses the squared distance, saving
  * the sqrt on the hot path — ordering, and hence recall, is unchanged).
  *
  * An index scores in a prepared space: it stores `prepare(v)` for each
  * vector, prepares each query once, and compares prepared vectors with
  * `prepared`, which equals `apply` on the raw vectors up to float rounding.
  */
sealed trait Distance extends Serializable {
  /** Stable name used in serialized index metadata. */
  def name: String
  def apply(a: Array[Float], b: Array[Float]): Double

  /** The form of `v` an index stores and searches with. */
  def prepare(v: Array[Float]): Array[Float]

  /** Distance of the prepared vectors `a[aOff, aOff+dim)` and
    * `b[bOff, bOff+dim)`; no dimension checks.
    */
  def prepared(a: Array[Float], aOff: Int, b: Array[Float], bOff: Int, dim: Int): Double
}

object Distance {

  /** Squared Euclidean distance; vectors are stored as given. */
  case object Euclidean extends Distance {
    val name = "l2"
    def apply(a: Array[Float], b: Array[Float]): Double = Vectors.l2sq(a, b)
    def prepare(v: Array[Float]): Array[Float] = v
    def prepared(a: Array[Float], aOff: Int, b: Array[Float], bOff: Int, dim: Int): Double =
      Vectors.l2sq(a, aOff, b, bOff, dim)
  }

  /** Cosine distance (1 − cosine similarity). Prepared vectors are unit
    * length (a zero vector stays zero), so the prepared distance is
    * `1 − dot`, and a zero vector is at distance 1 from everything.
    */
  case object Cosine extends Distance {
    val name = "cosine"
    def apply(a: Array[Float], b: Array[Float]): Double = Vectors.cosineDist(a, b)
    def prepare(v: Array[Float]): Array[Float] = Vectors.normalize(v)
    def prepared(a: Array[Float], aOff: Int, b: Array[Float], bOff: Int, dim: Int): Double =
      1.0 - Vectors.dot(a, aOff, b, bOff, dim)
  }

  /** Resolve a distance by its serialized name. */
  def of(name: String): Distance = name match {
    case Euclidean.`name` => Euclidean
    case Cosine.`name`    => Cosine
    case other            => throw new IllegalArgumentException(s"unknown distance: $other")
  }
}
