#!/usr/bin/env python3
"""Summarize or compare benchmark records written by run.py.

    python3 benchmark/compare.py RESULTS_DIR
        per workload and metric: the median over the records, and the
        spread (third minus first quartile, as a share of the median)
        against the metric's bound in BENCHMARK.json.

    python3 benchmark/compare.py BASE_DIR NEW_DIR
        per workload and end-to-end metric: both medians, the change as a
        share of the base median, and whether it stays within the bound.
        Per-layer medians are listed side by side, without a verdict.

Records are the JSON files in .bench_build/results/. Results recorded at
different core counts are never compared: F1 depends on the core count.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(directory):
    """{(workload, trace): {metric: [values]}} and the set of core counts."""
    values = defaultdict(lambda: defaultdict(list))
    cores = set()
    for f in sorted(Path(directory).glob("*.json")):
        rec = json.loads(f.read_text())
        if "result" not in rec:
            continue
        cores.add(rec["env"]["master"])
        for name, m in rec["result"]["metrics"].items():
            values[(rec["workload"], rec["trace"])][name].append(m["value"])
    return values, cores


def quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) >= 2 else [xs[0]] * 3


def spread(xs):
    q = quartiles(xs)
    med = statistics.median(xs)
    return (q[2] - q[0]) / abs(med) if med else float("inf")


def summarize(directory):
    values, _ = load(directory)
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    for (workload, trace), metrics in sorted(values.items()):
        print(f"== {workload} (trace {trace})")
        for name, xs in metrics.items():
            bound = bounds.get(name) if trace == 0 else None
            s = spread(xs)
            verdict = "" if bound is None else (
                "  ok (below a third of the bound)" if s < bound / 3 else
                "  within bound" if s <= bound else "  SPREAD ABOVE BOUND")
            print(f"  {name:34s} n={len(xs):2d} median {statistics.median(xs):14.6g} "
                  f"spread {s:7.2%}" + (f" bound {bound:.0%}{verdict}" if bound else ""))


def compare(base_dir, new_dir):
    base, base_cores = load(base_dir)
    new, new_cores = load(new_dir)
    if base_cores != new_cores or len(base_cores) != 1:
        sys.exit(f"refusing to compare: results were recorded on {sorted(base_cores)} "
                 f"and {sorted(new_cores)}; F1 depends on the core count")
    specs = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for key in sorted(set(base) & set(new)):
        print(f"== {key[0]} (trace {key[1]})")
        for name in base[key]:
            if name not in new[key]:
                continue
            b, n = statistics.median(base[key][name]), statistics.median(new[key][name])
            change = (n - b) / abs(b) if b else float("inf")
            m = specs.get(name, {})
            line = f"  {name:34s} base {b:14.6g} new {n:14.6g} change {change:+8.2%}"
            if key[1] == 0 and "bound" in m:
                worse = change if m["better"] == "lower" else -change
                if spread(base[key][name]) > m["bound"]:
                    line += "  unresolved (base spread above the bound)"
                else:
                    line += "  WORSE than bound" if worse > m["bound"] else "  within bound"
            print(line)


if __name__ == "__main__":
    if len(sys.argv) == 2:
        summarize(sys.argv[1])
    elif len(sys.argv) == 3:
        compare(sys.argv[1], sys.argv[2])
    else:
        sys.exit(__doc__)
