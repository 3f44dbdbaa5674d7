package repro.core

import repro.llm.{Criteria, Criterion, LLMProfile, SimLLM}
import repro.util.{Par, Rng, TokenMeter}

/** Training-data construction — Algorithm 1 of the paper.
  *
  * 1. Propagate each sampled LLM label to all cells of its cluster.
  * 2. Per attribute, refine criteria via contrastive in-context prompting.
  * 3. Mutual verification: drop criteria with accuracy < 0.5 on
  *    propagated-clean cells, then drop propagated-clean cells whose pass
  *    rate over the surviving criteria is < 0.5.
  * 4. LLM error augmentation to balance the minority class.
  */
object TrainData {

  /** A training cell: propagated (or augmented) label, with keep=false for
    * cells removed by verification.
    */
  final case class LabeledCell(tid: Long, attr: String, label: Boolean, keep: Boolean)

  /** An augmented error example, featurized on the driver with the same
    * FeatureModel the real cells use.
    */
  final case class Augmented(attr: String, value: String, features: Array[Double])

  final case class Outcome(labels: Seq[LabeledCell], augmented: Seq[Augmented],
                           refined: Map[String, Seq[Criterion]])

  val AugmentCapPerAttr = 400

  def construct(
      profile: LLMProfile, meter: TokenMeter, dsName: String,
      model: FeatureModel,
      attrCells: Map[String, Labeling.AttrCells],
      clusters: Map[String, Sampling.AttrClusters],
      sampleLabels: Map[(String, Long), Boolean],
      rowCtx: Map[Long, Map[String, String]],
      corr: Map[String, Seq[String]],
      useVerify: Boolean,
  ): Outcome = {
    val labels = Seq.newBuilder[LabeledCell]
    val toAugment = Vector.newBuilder[(String, String, Map[String, String])]
    val refined = Map.newBuilder[String, Seq[Criterion]]

    attrCells.toSeq.sortBy(_._1).foreach { case (attr, cells) =>
      val cl = clusters(attr)
      val corrAttrs = corr.getOrElse(attr, Seq.empty)

      // ---- 1. in-cluster propagation (Line 1)
      val clusterLabel: Array[Option[Boolean]] = cl.reps.map {
        case -1 => None
        case i  => sampleLabels.get((attr, cells.tids(i)))
      }
      val propagated: Array[(Int, Boolean)] = cells.tids.indices.flatMap { i =>
        clusterLabel(cl.assignments(i)).map(l => i -> l)
      }.toArray

      def sampleOf(i: Int): Criteria.Sample =
        Criteria.Sample(cells.values(i), rowCtx(cells.tids(i)))

      val errIdx   = propagated.filter(_._2).map(_._1)
      val cleanIdx = propagated.filterNot(_._2).map(_._1)

      if (!useVerify) {
        // Ablation w/o Veri.: keep raw propagation, initial criteria, no augmentation.
        propagated.foreach { case (i, l) =>
          labels += LabeledCell(cells.tids(i), attr, l, keep = true)
        }
        refined += attr -> model.criteria.getOrElse(attr, Seq.empty)
      } else {
        // ---- 2. contrastive criteria refinement (Lines 4-7)
        val cleanSample = cleanIdx.take(60).map(sampleOf).toSeq
        val errSample   = errIdx.take(60).map(sampleOf).toSeq
        val fStar0 = SimLLM.contrastiveCriteria(profile, meter, dsName, attr,
                                                cleanSample, errSample, corrAttrs)

        // ---- 3a. verify criteria against propagated-clean cells (Lines 8-14)
        val fStar =
          if (cleanIdx.isEmpty) fStar0
          else fStar0.filter { c =>
            val acc = cleanIdx.count(i =>
              c.eval(cells.values(i), rowCtx(cells.tids(i)))).toDouble / cleanIdx.length
            acc >= 0.5
          }
        refined += attr -> fStar

        // ---- 3b. verify propagated-clean cells against criteria (Lines 15-20)
        val keepClean: Map[Int, Boolean] =
          if (fStar.isEmpty) cleanIdx.map(_ -> true).toMap
          else cleanIdx.map { i =>
            val pass = fStar.count(_.eval(cells.values(i), rowCtx(cells.tids(i))))
            i -> (pass.toDouble / fStar.size >= 0.5)
          }.toMap

        propagated.foreach { case (i, l) =>
          labels += LabeledCell(cells.tids(i), attr, l,
                                keep = l || keepClean.getOrElse(i, true))
        }

        // ---- 4. LLM error augmentation (Lines 24-25)
        val keptClean = cleanIdx.filter(i => keepClean.getOrElse(i, true))
        val nErr = errIdx.length
        val want = math.min(AugmentCapPerAttr,
                            math.max(0, (keptClean.length * 0.5).toInt - nErr))
        if (want > 0 && keptClean.nonEmpty) {
          val srcIdx = (0 until want).map(j =>
            keptClean(Rng.int(keptClean.length, dsName, attr, "augPick", j)))
          val values = SimLLM.augmentErrors(profile, meter, dsName, attr,
            keptClean.take(50).map(cells.values).toSeq, want)
          values.zip(srcIdx).foreach { case (v, si) =>
            toAugment += ((attr, v, rowCtx(cells.tids(si)) + (attr -> v)))
          }
        }
      }
    }
    Outcome(labels.result(), augment(model, toAugment.result()), refined.result())
  }

  /** The `Augmented` rows of (attr, value, tuple) triples, in their order,
    * featurized in parallel chunks.
    */
  private def augment(model: FeatureModel,
                      rows: Vector[(String, String, Map[String, String])]): Seq[Augmented] = {
    val chunk = math.max(1, rows.length / (4 * Runtime.getRuntime.availableProcessors))
    Par.map(rows.grouped(chunk).toSeq)(_.map { case (attr, v, row) =>
      Augmented(attr, v, model.finalVec(attr, row))
    }).flatten
  }
}
