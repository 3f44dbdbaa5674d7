package repro.util

import org.apache.spark.SparkContext
import org.apache.spark.util.LongAccumulator

/** Token accounting for the simulated LLM.
  *
  * The paper's efficiency claims are in token counts; we meter the *actual
  * serialized prompt/response strings* the simulated calls would exchange,
  * using the common ~4-characters-per-token estimate. The totals are
  * accumulators registered on the SparkContext, which also count the calls.
  * Every call is made on the driver; an accumulator's `add` is not
  * thread-safe there, so one meter takes one call at a time.
  */
final class TokenMeter(val input: LongAccumulator, val output: LongAccumulator)
    extends Serializable {

  /** Record one simulated LLM call. Returns the response for chaining. */
  def call(prompt: String, response: String): String = {
    input.add(Tokens.estimate(prompt))
    output.add(Tokens.estimate(response))
    response
  }

  def inputTokens: Long  = input.value
  def outputTokens: Long = output.value
  def totalTokens: Long  = inputTokens + outputTokens
}

object TokenMeter {
  /** A meter registered on the given SparkContext (accumulators show in UI). */
  def apply(sc: SparkContext, name: String): TokenMeter =
    new TokenMeter(sc.longAccumulator(s"$name.inputTokens"),
                   sc.longAccumulator(s"$name.outputTokens"))

  /** Driver-only meter (no SparkContext needed) for unit tests. */
  def local(): TokenMeter = new TokenMeter(new LongAccumulator, new LongAccumulator)
}

object Tokens {
  /** Rough GPT-style token estimate: ~4 characters per token, min 1 per
    * non-empty string.
    */
  def estimate(text: String): Long =
    if (text == null || text.isEmpty) 0L else math.max(1L, math.ceil(text.length / 4.0).toLong)
}
