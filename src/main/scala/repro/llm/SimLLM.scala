package repro.llm

import repro.data.ErrorInjector
import repro.util.{Rng, TokenMeter}

/** The simulated LLM: every interaction ZeroED (and FM_ED) has with a real
  * model, as deterministic calibrated procedures (see DESIGN.md).
  *
  * Generation tasks (criteria, guidelines, augmentation) run real programs
  * over the provided samples — what the real LLM's emitted code/answers would
  * amount to — degraded by the profile's quality knobs. Labeling is a noisy
  * oracle: it flips the ground-truth label with profile- and context-dependent
  * probability, which is the minimal faithful model of "an LLM of a given
  * strength judging a cell". All prompts/responses are serialized and metered.
  */
object SimLLM {

  /** A cell presented for labeling: its value, tuple context, ground-truth
    * error type ("" = clean; used only to calibrate the simulated noise).
    */
  final case class Cell(tid: Long, attr: String, value: String,
                        ctx: Map[String, String], errType: String)

  // ------------------------------------------------------------ generation

  /** Section III-B: reason executable error-checking criteria per attribute. */
  def reasonCriteria(profile: LLMProfile, meter: TokenMeter, dataset: String,
                     attr: String, samples: Seq[Criteria.Sample],
                     corrAttrs: Seq[String]): Seq[Criterion] = {
    val cs = Criteria.infer(attr, samples, corrAttrs, profile.critQuality,
                            s"$dataset:${profile.name}")
    meter.call(
      Prompts.criteriaPrompt(attr, samples.take(20).map(s =>
        Prompts.serializeTuple(s.ctx.keys.toSeq, s.ctx.values.toSeq))),
      Prompts.codeResponse(Criteria.render(cs)))
    cs
  }

  /** Section III-C step 1+2: analysis functions over the whole data, then the
    * guideline. `dist` is the executed analysis (full-data aggregates).
    */
  def makeGuideline(profile: LLMProfile, meter: TokenMeter, dataset: String,
                    attr: String, dist: AttrDist,
                    sampleValues: Seq[String]): Guideline = {
    meter.call(Prompts.analysisFnPrompt(attr, sampleValues.take(20)),
               Prompts.codeResponse(Seq(
                 "counts = df[attr].value_counts()",
                 "patterns = df[attr].map(generalize_l2).value_counts()",
                 "return counts, patterns, numeric_summary(df[attr])")))
    val g = Guidelines.compose(attr, dist, sampleValues)
    meter.call(Prompts.guidelinePrompt(attr, dist.summary, sampleValues.take(20)),
               g.render)
    g
  }

  // -------------------------------------------------------------- labeling

  /** Label one batch of sampled cells (Section III-C). Returns predicted
    * is-error flags aligned with the batch. Calibrated flip noise; the
    * batched prompt and the per-value response are metered.
    */
  def labelBatch(profile: LLMProfile, meter: TokenMeter, dataset: String,
                 attr: String, batch: Seq[Cell], guideline: Option[Guideline],
                 useCtx: Boolean): Seq[Boolean] = {
    val preds = batch.map(c => labelOne(profile, dataset, c, guideline.isDefined, useCtx))
    val lines = batch.map { c =>
      val ctxStr = if (useCtx) c.ctx.map { case (k, v) => s"$k: $v" }.mkString(" , ")
                   else ""
      s"value: ${c.value} $ctxStr"
    }
    meter.call(Prompts.labelPrompt(attr, guideline.map(_.render), lines),
               Prompts.labelResponse(batch.map(_.value).zip(preds.map(p => if (p) 1 else 0))))
    preds
  }

  /** The calibrated per-cell judgement (deterministic in all its keys). */
  def labelOne(profile: LLMProfile, dataset: String, c: Cell,
               useGuide: Boolean, useCtx: Boolean): Boolean = {
    val key = Seq(profile.name, "label", dataset, c.attr, c.tid)
    if (c.errType.isEmpty) Rng.bool(profile.fpProb(useGuide), key: _*)
    else Rng.bool(profile.detectProb(c.errType, useGuide, useCtx), key: _*)
  }

  // ------------------------------------------------------- FM_ED baseline

  /** FM_ED's per-tuple prompt: judge every cell of one serialized tuple in
    * isolation. Executor-safe (called once per tuple on the executors);
    * meters the whole tuple prompt once plus the yes/no response.
    */
  def fmedTuple(profile: LLMProfile, meter: TokenMeter, dataset: String,
                tid: Long, attrs: Seq[String], values: Seq[String],
                errTypes: Seq[String]): Seq[Boolean] = {
    val preds = attrs.indices.map { j =>
      labelOne(profile, dataset,
               Cell(tid, attrs(j), values(j), Map.empty, errTypes(j)),
               useGuide = false, useCtx = false)
    }
    meter.call(Prompts.fmedPrompt(Prompts.serializeTuple(attrs, values)),
               attrs.zip(preds.map(p => if (p) "yes" else "no"))
                    .map { case (a, r) => s"$a: $r" }.mkString(", "))
    preds
  }

  // ----------------------------------------------------------- refinement

  /** Contrastive in-context criteria refinement (Algorithm 1 lines 4–7). */
  def contrastiveCriteria(profile: LLMProfile, meter: TokenMeter, dataset: String,
                          attr: String, clean: Seq[Criteria.Sample],
                          err: Seq[Criteria.Sample],
                          corrAttrs: Seq[String]): Seq[Criterion] = {
    val cs = Criteria.refine(attr, clean, err, corrAttrs, profile.critQuality,
                             s"$dataset:${profile.name}")
    meter.call(Prompts.contrastivePrompt(attr, clean.take(15).map(_.value),
                                         err.take(15).map(_.value)),
               Prompts.codeResponse(Criteria.render(cs)))
    cs
  }

  // ---------------------------------------------------------- augmentation

  /** LLM error augmentation (Algorithm 1 lines 24–25): create realistic
    * erroneous variants of clean values. Weak models occasionally emit a
    * variant identical to the source (a useless augmentation — label noise),
    * governed by augQuality.
    */
  def augmentErrors(profile: LLMProfile, meter: TokenMeter, dataset: String,
                    attr: String, cleanValues: Seq[String], n: Int): Seq[String] = {
    if (cleanValues.isEmpty || n <= 0) return Seq.empty
    val out = (0 until n).map { i =>
      val src = Rng.pick(cleanValues.toIndexedSeq, profile.name, "augSrc", dataset, attr, i)
      if (Rng.bool(1.0 - profile.augQuality, profile.name, "augBad", dataset, attr, i)) src
      else {
        val kind = Rng.int(4, profile.name, "augKind", dataset, attr, i)
        kind match {
          case 0 => "" // missing
          case 1 => ErrorInjector.typo(src, profile.name, "augTypo", dataset, attr, i)
          case 2 => ErrorInjector.patternViolation(src)
          case _ =>
            Criteria.parseNumber(src) match {
              case Some(_) => "999" + src
              case None    => "anomaly" + Rng.int(50, profile.name, "augO", dataset, attr, i)
            }
        }
      }
    }
    meter.call(Prompts.augmentPrompt(attr, cleanValues.take(15), n),
               Prompts.listResponse(out))
    out
  }
}
