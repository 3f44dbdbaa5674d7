package repro.util

import org.scalatest.funsuite.AnyFunSuite

class TokensSpec extends AnyFunSuite {

  test("estimate of empty/null is zero") {
    assert(Tokens.estimate("") == 0L)
    assert(Tokens.estimate(null) == 0L)
  }

  test("estimate is ceil(chars/4) with a floor of 1") {
    assert(Tokens.estimate("ab") == 1L)
    assert(Tokens.estimate("abcd") == 1L)
    assert(Tokens.estimate("abcde") == 2L)
    assert(Tokens.estimate("x" * 400) == 100L)
  }

  test("local meter accumulates input and output") {
    val m = TokenMeter.local()
    m.call("x" * 40, "y" * 8)
    m.call("x" * 4, "")
    assert(m.inputTokens == 11L)
    assert(m.outputTokens == 2L)
    assert(m.totalTokens == 13L)
  }

  test("call returns the response") {
    val m = TokenMeter.local()
    assert(m.call("p", "r") == "r")
  }
}
