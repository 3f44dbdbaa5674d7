package repro.core

import org.scalacheck.{Gen, Properties}
import org.scalacheck.Prop.forAll

/** ScalaCheck properties for `Patterns`: every level equals the
  * string-per-character implementation it replaced, on random strings mixing
  * ASCII and non-ASCII letters and digits, symbols and runs of symbols.
  */
object PatternsProps extends Properties("Patterns") {

  /** The former `Patterns`: each character's class as a `String`. */
  object Oracle {
    def l1(v: String): String = runLength(v, c => if (c.isLetterOrDigit) "A" else c.toString)
    def l2(v: String): String = runLength(v, c =>
      if (c.isLetter) "L" else if (c.isDigit) "D" else "S")
    def l3(v: String): String = runLength(v, c =>
      if (c.isUpper) "U" else if (c.isLetter) "u" else if (c.isDigit) "D" else "S")

    private def runLength(v: String, cls: Char => String): String = {
      if (v.isEmpty) return "∅"
      val sb = new StringBuilder
      var i = 0
      while (i < v.length) {
        val c = cls(v.charAt(i))
        var n = 1
        while (i + n < v.length && cls(v.charAt(i + n)) == c) n += 1
        if (c.length == 1 && !c.charAt(0).isLetter) sb.append(c * n)
        else sb.append(s"$c[$n]")
        i += n
      }
      sb.toString
    }
  }

  // Non-ASCII: accented, German, Cyrillic, titlecase and CJK letters, Arabic-
  // Indic and Devanagari digits, and the two halves of an emoji.
  private val letters = "aZqéßЖǅ中"
  private val digits  = "09٣५"
  private val symbols = "-./ :,@# €😀"

  private val chunk: Gen[String] = Gen.frequency(
    4 -> Gen.oneOf(letters ++ digits ++ symbols).map(_.toString),
    1 -> Gen.zip(Gen.oneOf(symbols), Gen.choose(2, 5)).map { case (c, n) => c.toString * n })

  private val value: Gen[String] = Gen.frequency(
    1 -> Gen.const(""),
    9 -> Gen.listOf(chunk).map(_.mkString))

  property("every level matches the former implementation") = forAll(value) { v =>
    Patterns.l1(v) == Oracle.l1(v) && Patterns.l2(v) == Oracle.l2(v) &&
      Patterns.l3(v) == Oracle.l3(v)
  }
}
