package repro.core

/** Three-level pattern generalization of cell values (Section III-B).
  *
  * For "DOe123." the paper gives: L1 "A[6].", L2 "L[3]D[3]S[1]",
  * L3 "U[2]u[1]D[3]S[1]" — run-length encodings over progressively finer
  * character classes (A alphanumeric; L letter / D digit / S symbol;
  * U upper / u lower / D digit / S symbol).
  */
object Patterns {

  /** L1: alphanumerics collapse to A-runs, symbols stay literal. */
  def l1(v: String): String = runLength(v, 1)

  /** L2: letter / digit / symbol runs. */
  def l2(v: String): String = runLength(v, 2)

  /** L3: uppercase / lowercase / digit / symbol runs. */
  def l3(v: String): String = runLength(v, 3)

  def all(v: String): Seq[String] = Seq(l1(v), l2(v), l3(v))

  /** The level-`level` pattern of `v` (L3 at any level but 1 and 2). */
  def at(level: Int, v: String): String = runLength(v, level)

  /** The class of `c` at `level`: a class letter, or at L1 a symbol itself. */
  private def cls(level: Int, c: Char): Char = level match {
    case 1 => if (c.isLetterOrDigit) 'A' else c
    case 2 => if (c.isLetter) 'L' else if (c.isDigit) 'D' else 'S'
    case _ => if (c.isUpper) 'U' else if (c.isLetter) 'u' else if (c.isDigit) 'D' else 'S'
  }

  private def runLength(v: String, level: Int): String = {
    if (v.isEmpty) return "∅"
    val sb = new java.lang.StringBuilder(v.length + 8)
    var i = 0
    while (i < v.length) {
      val c = cls(level, v.charAt(i))
      var n = 1
      while (i + n < v.length && cls(level, v.charAt(i + n)) == c) n += 1
      // Literal symbols (L1) are emitted bare, class runs with counts.
      if (c.isLetter) sb.append(c).append('[').append(n).append(']')
      else { var k = 0; while (k < n) { sb.append(c); k += 1 } }
      i += n
    }
    sb.toString
  }
}
