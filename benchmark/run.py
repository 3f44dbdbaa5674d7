#!/usr/bin/env python3
"""The ZeroED benchmark: build the program, run one workload, check its
outputs and print its metrics.

Run from the root of a checkout:

    python3 benchmark/run.py --workload zeroed-hospital --seed 3 --seconds 1 --trace 0

The first run builds the program and the harness from source with sbt
(into .bench_build/); later runs reuse the build while the sources are
unchanged. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics. Each run also writes a full
record (environment, every run, quartiles) to .bench_build/results/. See
benchmark/README.md for the workloads and what every metric means.
"""
import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
PROGRAM = ROOT / "src" / "main" / "scala"

# A run must end within 180 s; keep a margin for start-up and output.
RUN_DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 840.0
# Pinned driver heap: heap_peak_mb and GC time depend on it.
DRIVER_HEAP = "4g"
JVM_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent",
              "java.util.concurrent.atomic", "jdk.internal.ref", "sun.nio.ch",
              "sun.nio.cs", "sun.security.action", "sun.util.calendar")
]


class BenchError(Exception):
    """The benchmark could not run; it prints no result."""


def sources():
    files = sorted(PROGRAM.rglob("*.scala")) + sorted((BENCH / "src").rglob("*.scala"))
    return files + [BENCH / "build.sbt", BENCH / "project" / "build.properties"]


def source_digest():
    h = hashlib.sha256()
    for f in sources():
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build(digest):
    """Compile with sbt unless the last build saw the same sources. Returns
    the runtime classpath and whether a build ran."""
    stamp = BUILD / "build.stamp"
    classpath = BUILD / "target" / "classpath.txt"
    if stamp.is_file() and classpath.is_file() and stamp.read_text() == digest:
        return classpath.read_text().strip(), False
    BUILD.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        # Resolve only from the local caches, as the repository's tests do.
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = Path.home() / ".sbt" / "repositories"
        if repos.is_file():
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    log = BUILD / "build.log"
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    t0 = time.time()
    with open(log, "w") as out:
        code = supervise(["sbt", "--batch", "-Dsbt.log.noformat=true",
                          "-Dsbt.boot.lock=false", f"-Djava.io.tmpdir={tmp}",
                          "-J-XX:-UsePerfData", "benchClasspath"],
                         BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=out,
                         stderr=subprocess.STDOUT)
    if code != 0:
        tail = log.read_text().splitlines()[-30:]
        raise BenchError("build failed:\n" + "\n".join(tail))
    stamp.write_text(digest)
    print(f"built in {time.time() - t0:.1f} s", file=sys.stderr)
    return classpath.read_text().strip(), True


def supervise(cmd, timeout, **kw):
    """Run a command in its own process group; kill the group on timeout
    and always wait for it to end."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{cmd[0]} did not finish within {timeout:.0f} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def java(classpath, args, deadline):
    """Run one benchmark process (zbench.Main) and return its record."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    out = tmp / f"record-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    java_bin = Path(os.environ["JAVA_HOME"]) / "bin" / "java" if "JAVA_HOME" in os.environ \
        else "java"
    cmd = [str(java_bin), f"-Xmx{DRIVER_HEAP}", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}", *JVM_OPENS,
           "-cp", classpath, "zbench.Main", *args,
           "--work-dir", str(BUILD / "work"), "--out", str(out)]
    # Spark's scratch files stay in the checkout: drop the variable that
    # would override spark.local.dir.
    env = {k: v for k, v in os.environ.items() if k != "SPARK_LOCAL_DIRS"}
    code = supervise(cmd, deadline - time.time(), cwd=ROOT, env=env, stdout=sys.stderr)
    if code != 0 or not out.is_file():
        raise BenchError(f"benchmark process exited with code {code}")
    record = json.loads(out.read_text())
    out.unlink()
    return record


def quartiles(xs):
    if len(xs) < 2:
        return [xs[0], xs[0], xs[0]]
    return statistics.quantiles(xs, n=4)


def timed_metrics(rec):
    """End-to-end metrics of one process: medians over its set-up
    repetitions and its timed runs; f1 and tokens are those of its first
    run, which the correctness gate requires every run to repeat. The heap
    peak is kept in the record only: it does not repeat within a tenth."""
    timed = [r for r in rec["runs"] if not r["warmup"]]
    if not timed:
        raise BenchError(f"the warm-up run failed: {rec['runs'][0]['error']}")
    return {
        "setup_s": statistics.median(rec["setup_s"]),
        "run_s": statistics.median(r["run_s"] for r in timed),
        "f1": rec["runs"][0].get("f1"),
        "llm_tokens": rec["runs"][0].get("llm_tokens"),
        "heap_peak_mb": statistics.median(r["heap_peak_mb"] for r in timed),
    }


OUTPUT_KEYS = ("f1", "llm_tokens", "n_sampled", "f1_by_method")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="dataset and ZeroED seed (default: spec seed 7, config seed 42)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time of one run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.time()

    if not (PROGRAM / "repro" / "core" / "ZeroED.scala").is_file():
        raise BenchError(f"the program's sources are missing: no {PROGRAM.relative_to(ROOT)}"
                         "/repro/core/ZeroED.scala under the checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload}; known: {', '.join(names)}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    digest = source_digest()
    classpath, built = build(digest)
    deadline = (time.time() if built else start) + RUN_DEADLINE_S
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    common = ["--workload", args.workload, "--cores", str(cores)]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]

    if args.trace == 0:
        rec = java(classpath, common + ["--mode", "timed", "--seconds", str(seconds)], deadline)
    else:
        rec = java(classpath, common + ["--mode", "traced"], deadline)
    e2e = timed_metrics(rec)
    runs = rec["runs"]
    timed_runs = [r["run_s"] for r in runs if not r["warmup"]]
    errors = [r["error"] for r in runs if r.get("error")]
    attempted = len(runs)
    record = {"commit": git_commit(), "source_digest": digest, "process": rec,
              "run_s_quartiles": quartiles(timed_runs)}

    if args.trace == 1:
        attempted += 1
        # Trace fidelity: the traced pass must give the outputs of the
        # untraced runs on the same workload and seed, exactly.
        want = {k: runs[0][k] for k in OUTPUT_KEYS if k in runs[0]}
        got = {k: rec["outputs"][k] for k in OUTPUT_KEYS if k in rec["outputs"]}
        if want != got:
            errors.append(f"trace fidelity: traced outputs {got} differ from untraced {want}")
        layers = dict(rec["layers"])
        layers["trace.overhead_s"] = rec["traced_wall_s"] - e2e["run_s"]
        metrics, wanted = layers, spec["per_layer"]
    else:
        metrics, wanted = e2e, spec["end_to_end"]

    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  env=rec["env"], errors=errors, result=result)
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))

    env = rec["env"]
    print(f"workload {args.workload} seed {args.seed} on {env['master']}, "
          f"{env['shuffle_partitions']} shuffle partitions, heap {env['driver_heap_mb']} MB, "
          f"{env['jdk']}, Spark {env['spark']}, commit {record['commit']}")
    q = record["run_s_quartiles"]
    print(f"run_s over {len(timed_runs)} timed run(s) after a warm-up: "
          f"median {e2e['run_s']:.3f} s, "
          f"quartiles {q[0]:.3f} / {q[2]:.3f} s")
    for e in errors:
        print(f"FAILED: {e}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))


if __name__ == "__main__":
    # On SIGTERM, unwind so that supervise() stops the child process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        sys.exit(2)
