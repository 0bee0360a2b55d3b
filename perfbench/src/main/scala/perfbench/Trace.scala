package perfbench

import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer, recorded from the benchmark around the
  * program's public functions. `parent` is −1 for a root span.
  */
final case class Span(id: Int, name: String, startNs: Long, endNs: Long, parent: Int) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** In-memory span recorder for one run (single driver thread). Disabled, it
  * only runs the body, so untraced runs pay nothing for it.
  */
final class Tracer(val runId: String) {
  var enabled = false
  private val spans = ArrayBuffer.empty[Span]
  private var stack = List.empty[Int]

  def apply[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = spans.length
      spans += null // reserve the id; filled in when the span ends
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val t0 = System.nanoTime()
      try body
      finally {
        spans(id) = Span(id, name, t0, System.nanoTime(), parent)
        stack = stack.tail
      }
    }

  /** Self time per span name: each span's duration minus the time its
    * children cover (children of one span never overlap here).
    */
  def selfSeconds: Map[String, Double] = {
    val childSum = spans.groupMapReduce(_.parent)(_.seconds)(_ + _)
    spans.groupMapReduce(_.name)(s => s.seconds - childSum.getOrElse(s.id, 0.0))(_ + _)
  }

  def toJson(t0: Long): Seq[Map[String, Any]] = spans.toSeq.map { s =>
    Map("id" -> s.id, "name" -> s.name, "parent" -> s.parent, "run" -> runId,
      "start_ms" -> (s.startNs - t0) / 1e6, "end_ms" -> (s.endNs - t0) / 1e6)
  }
}

/** Minimal JSON rendering for the result line and the run record. */
object Json {
  def render(v: Any): String = v match {
    case null | None        => "null"
    case Some(x)            => render(x)
    case s: String          => quote(s)
    case b: Boolean         => b.toString
    case d: Double          => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Number          => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ": " + render(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_]    => xs.map(render).mkString("[", ", ", "]")
    case other              => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }
}
