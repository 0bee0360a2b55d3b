package repro.experiments

/** A rendered experiment table: the same rows the paper reports, printed as
  * GitHub-flavored markdown so bench output can be diffed into
  * EXPERIMENTS.md directly.
  */
final case class ExpTable(title: String, header: Seq[String], rows: Seq[Seq[String]]) {
  def render: String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"### $title" +: line(header) +: sep +: rows.map(line)).mkString("\n")
  }
}

/** Formatting helpers shared by the experiment harnesses. */
object Fmt {
  def f2(x: Double): String = f"$x%.2f"
  def f4(x: Double): String = f"$x%.4f"

  /** Milliseconds → displayed minutes with 2 decimals (paper build times). */
  def minutes(millis: Double): String = f2(millis / 60000.0)

  /** Wall-clock a thunk; returns (result, elapsedMillis). */
  def timed[A](thunk: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = thunk
    (a, (System.nanoTime() - t0) / 1000000L)
  }
}
