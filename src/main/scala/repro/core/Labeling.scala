package repro.core

import repro.llm.{Guideline, LLMProfile, SimLLM}
import repro.util.TokenMeter

/** Context-aware LLM labeling of the sampled representatives (Section III-C).
  *
  * Samples are presented per attribute in batches of `batchSize` values, each
  * accompanied by its correlated-attribute context, against the attribute's
  * generated guideline.
  */
object Labeling {

  /** One attribute's cells on the driver, read by the sampled workflows and
    * by the detector: parallel arrays of tuple id, raw value, feature vector.
    */
  final case class AttrCells(attr: String, tids: Array[Long],
                             values: Array[String], feats: Array[Array[Double]]) {
    require(tids.length == values.length && tids.length == feats.length)
    def size: Int = tids.length
  }

  /** Label all sampled representatives. Returns (attr, tid) → is-error. */
  def labelSamples(
      profile: LLMProfile, meter: TokenMeter, dsName: String,
      attrCells: Map[String, AttrCells],
      clusters: Map[String, Sampling.AttrClusters],
      rowCtx: Map[Long, Map[String, String]],
      errTypes: Map[(Long, String), String],
      corr: Map[String, Seq[String]],
      guidelines: Map[String, Guideline],
      useCtx: Boolean,
      batchSize: Int = 20,
  ): Map[(String, Long), Boolean] = {
    val out = Map.newBuilder[(String, Long), Boolean]
    attrCells.toSeq.sortBy(_._1).foreach { case (attr, cells) =>
      val sampled = clusters(attr).sampledIdx
      val ctxAttrs = corr.getOrElse(attr, Seq.empty)
      val batch = sampled.map { i =>
        val tid = cells.tids(i)
        val ctx =
          if (useCtx) ctxAttrs.flatMap(q => rowCtx(tid).get(q).map(q -> _)).toMap
          else Map.empty[String, String]
        SimLLM.Cell(tid, attr, cells.values(i), ctx,
                    errTypes.getOrElse((tid, attr), ""))
      }
      batch.grouped(batchSize).foreach { b =>
        val preds = SimLLM.labelBatch(profile, meter, dsName, attr, b.toSeq,
                                      guidelines.get(attr), useCtx)
        b.zip(preds).foreach { case (c, p) => out += (attr, c.tid) -> p }
      }
    }
    out.result()
  }
}
