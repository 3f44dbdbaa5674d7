package repro.util

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

/** Driver-side data parallelism on the global thread pool. */
object Par {

  /** `f` applied to every element of `xs` in parallel; results in the order of `xs`. */
  def map[A, B](xs: Seq[A])(f: A => B): Seq[B] = {
    implicit val ec: ExecutionContext = ExecutionContext.global
    Await.result(Future.traverse(xs)(x => Future(f(x))), Duration.Inf)
  }
}
