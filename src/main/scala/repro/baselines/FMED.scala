package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.EDataset
import repro.llm.{ModelProfiles, SimLLM}
import repro.util.TokenMeter

/** FM_ED [19]: zero-shot LLM prompting over *every* tuple in isolation
  * ("Is there an error in this tuple?"). One pass over the tuples invokes the
  * simulated LLM once per tuple with accumulator-based token metering, so the
  * full-dataset token cost (the paper's Fig. 8 axis) is measured from the
  * actual serialized prompts.
  */
object FMED {

  final case class Result(pred: DataFrame, inputTokens: Long, outputTokens: Long)

  def detect(spark: SparkSession, ds: EDataset): Result = {
    import spark.implicits._
    val meter = TokenMeter(spark.sparkContext, s"fmed-${ds.name}")
    val profile = ModelProfiles.fmEd
    val attrs = ds.attrs
    val name = ds.name
    val errTypes = spark.sparkContext.broadcast(SimLLM.errorTypes(ds.mask))

    val pred = ds.dirty.flatMap { r =>
      val tid = r.getAs[Long]("tid")
      val ets = attrs.map(a => errTypes.value.getOrElse((tid, a), ""))
      val preds = SimLLM.fmedTuple(profile, meter, name, tid, attrs,
                                   attrs.map(r.getAs[String](_)), ets)
      attrs.zip(preds).map { case (a, p) => (tid, a, p) }
    }.toDF("tid", "attr", "pred").cache()
    pred.count() // run the pass so the meter is populated
    Result(pred, meter.inputTokens, meter.outputTokens)
  }
}
