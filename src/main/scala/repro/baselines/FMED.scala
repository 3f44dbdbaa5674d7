package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.{CellTable, EDataset}
import repro.llm.{ModelProfiles, SimLLM}
import repro.util.TokenMeter

/** FM_ED [19]: zero-shot LLM prompting over *every* tuple in isolation
  * ("Is there an error in this tuple?"). One pass over the tuples, on the
  * driver, invokes the simulated LLM once per tuple and meters its tokens, so
  * the full-dataset token cost (the paper's Fig. 8 axis) is measured from the
  * actual serialized prompts.
  */
object FMED {

  final case class Result(pred: DataFrame, inputTokens: Long, outputTokens: Long)

  def detect(spark: SparkSession, ds: EDataset): Result = {
    val meter = TokenMeter(spark.sparkContext, s"fmed-${ds.name}")
    val profile = ModelProfiles.fmEd
    val attrs = ds.attrs
    // Sequential: the meter's accumulators are not thread-safe on the driver.
    val pred = CellTable.predictions(spark, ds.tuples) { (tid, row) =>
      val ets = attrs.map(a => ds.errTypes.getOrElse((tid, a), ""))
      attrs.zip(SimLLM.fmedTuple(profile, meter, ds.name, tid, attrs, attrs.map(row), ets))
        .collect { case (a, true) => a }
    }
    Result(pred, meter.inputTokens, meter.outputTokens)
  }
}
