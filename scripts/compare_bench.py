#!/usr/bin/env python3
"""Diff two benchmark result files: google-benchmark JSON or perfbench records.

Usage:
  scripts/compare_bench.py BASELINE.json CONTENDER.json [--filter REGEX]
                           [--counters]
  scripts/compare_bench.py BENCH_perf_<workload>.json

google-benchmark files: matches benchmarks by name, prints per-benchmark
wall-time deltas and the speedup factor (baseline_time / contender_time;
> 1 means the contender is faster), and a geometric-mean speedup over the
matched set. With --counters it also diffs every shared user counter
(e.g. the calibration error metrics of BENCH_exec.json, where the
counters — not the times — carry the model-quality result).

perfbench files: each side is one record as perfbench/run.py keeps it
({"workload": ..., "result": {"metrics": {name: {"value", "unit"}}}}) or
a list of such records (seeds of one build), reduced to the per-metric
median of each workload; a side may hold several workloads, and each is
compared on its own. A single file holding {"baseline": {"records": [...]},
"contender": {"records": [...]}} compares its two sides. Every shared
metric of BENCHMARK.json is printed with its relative change, signed so
that positive means worse in that metric's better direction; an
end-to-end metric worse by more than its bound is flagged and makes the
exit code 1.

Exits nonzero on malformed inputs or when nothing matches, so it can gate
CI.
"""

import argparse
import json
import math
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"error: cannot read benchmark JSON {path!r}: {exc}")


def load_benchmarks(path, doc):
    out = {}
    for bench in doc.get("benchmarks", []) if isinstance(doc, dict) else []:
        # Skip aggregate rows (mean/median/stddev of repetitions); compare
        # the raw iterations only.
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        if name is None or "real_time" not in bench:
            continue
        out[name] = bench
    if not out:
        sys.exit(f"error: {path!r} contains no benchmark entries")
    return out


def perf_records(doc):
    """The perfbench records of one side, or None if `doc` holds none."""
    records = doc if isinstance(doc, list) else [doc]
    if records and all(isinstance(r, dict) and "metrics" in r.get(
            "result", {}) for r in records):
        return records
    return None


def perf_medians(records):
    """{workload: {metric: median over that workload's records}}."""
    values = {}
    for record in records:
        per_workload = values.setdefault(str(record.get("workload")), {})
        for name, metric in record["result"]["metrics"].items():
            per_workload.setdefault(name, []).append(metric["value"])
    return {w: {n: statistics.median(v) for n, v in m.items()}
            for w, m in values.items()}


def worsening(spec, base, cont):
    """Relative change of `cont` against `base` in the metric's worse
    direction: > 0 means worse, < 0 better."""
    change = cont - base if spec["better"] == "lower" else base - cont
    if base == 0:
        return 0.0 if change == 0 else math.copysign(math.inf, change)
    return change / abs(base)


def compare_perf(base_records, cont_records):
    base_sides, cont_sides = perf_medians(base_records), perf_medians(cont_records)
    if sorted(base_sides) != sorted(cont_sides):
        sys.exit(f"error: workloads differ ({sorted(base_sides)} vs "
                 f"{sorted(cont_sides)})")
    spec = read_json(os.path.join(ROOT, "BENCHMARK.json"))
    status = 0
    for workload in sorted(base_sides):
        n_base, n_cont = (sum(str(r.get("workload")) == workload for r in side)
                          for side in (base_records, cont_records))
        print(f"workload {workload}: {n_base} baseline vs {n_cont} "
              "contender record(s), medians")
        status |= compare_workload(spec, base_sides[workload],
                                   cont_sides[workload])
    return status


def compare_workload(spec, base, cont):
    specs = [s for s in spec["end_to_end"] + spec["per_layer"]
             if s["name"] in base and s["name"] in cont]
    if not specs:
        sys.exit("error: no common perfbench metrics to compare")
    width = max(len(s["name"]) for s in specs)
    print(f"{'metric':<{width}}  {'unit':>6}  {'baseline':>12}  "
          f"{'contender':>12}  {'worse by':>9}  {'bound':>6}")
    flagged = []
    for s in specs:
        name = s["name"]
        worse = worsening(s, base[name], cont[name])
        bound = s.get("bound")
        verdict = ""
        if bound is not None and worse > bound:
            verdict = "  OUT OF BOUND"
            flagged.append(name)
        bound_text = f"{bound:.0%}" if bound is not None else "-"
        print(f"{name:<{width}}  {s['unit']:>6}  {base[name]:>12.4g}  "
              f"{cont[name]:>12.4g}  {worse:>+9.1%}  {bound_text:>6}{verdict}")
    if flagged:
        print(f"\n{len(flagged)} metric(s) worse beyond their bound: "
              f"{', '.join(flagged)}\n")
        return 1
    print("\nno end-to-end metric worse beyond its bound\n")
    return 0


def fmt_time(value, unit):
    return f"{value:,.0f} {unit}"


# Numeric fields of a benchmark entry that are bookkeeping, not user
# counters.
_NON_COUNTER_KEYS = frozenset({
    "real_time", "cpu_time", "iterations", "repetitions",
    "repetition_index", "family_index", "per_family_instance_index",
    "threads",
})


def counters_of(bench):
    """User counters of one benchmark entry (includes items_per_second)."""
    return {
        key: value
        for key, value in bench.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
        and key not in _NON_COUNTER_KEYS
    }


def print_counter_diffs(names, base, cont):
    rows = []
    for name in names:
        base_counters = counters_of(base[name])
        cont_counters = counters_of(cont[name])
        for key in sorted(base_counters):
            if key in cont_counters:
                rows.append((name, key, base_counters[key],
                             cont_counters[key]))
    if not rows:
        print("\nno shared user counters to compare")
        return
    width = max(len(f"{name} [{key}]") for name, key, _, _ in rows)
    print(f"\n{'counter':<{width}}  {'baseline':>14}  {'contender':>14}  "
          f"{'delta':>8}")
    for name, key, bv, cv in rows:
        label = f"{name} [{key}]"
        delta = (cv - bv) / bv * 100.0 if bv != 0 else float("inf")
        print(f"{label:<{width}}  {bv:>14,.4g}  {cv:>14,.4g}  "
              f"{delta:>+7.1f}%")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="baseline results (JSON)")
    parser.add_argument(
        "contender", nargs="?",
        help="new results (JSON); omit for a perfbench baseline/contender file")
    parser.add_argument(
        "--filter", default=None, metavar="REGEX",
        help="only compare benchmarks whose name matches REGEX")
    parser.add_argument(
        "--counters", action="store_true",
        help="also diff user counters shared by baseline and contender")
    args = parser.parse_args()

    base_doc = read_json(args.baseline)
    if args.contender is None:
        sides = [base_doc.get(k, {}).get("records")
                 if isinstance(base_doc, dict) else None
                 for k in ("baseline", "contender")]
        if not all(sides):
            sys.exit(f"error: {args.baseline!r} has no baseline and "
                     "contender records; pass two files")
        return compare_perf(sides[0], sides[1])
    cont_doc = read_json(args.contender)
    base_records, cont_records = perf_records(base_doc), perf_records(cont_doc)
    if base_records is not None and cont_records is not None:
        return compare_perf(base_records, cont_records)

    base = load_benchmarks(args.baseline, base_doc)
    cont = load_benchmarks(args.contender, cont_doc)
    names = [n for n in base if n in cont]
    if args.filter:
        pattern = re.compile(args.filter)
        names = [n for n in names if pattern.search(n)]
    if not names:
        sys.exit("error: no common benchmark names to compare")

    width = max(len(n) for n in names)
    print(f"{'benchmark':<{width}}  {'baseline':>14}  {'contender':>14}  "
          f"{'delta':>8}  {'speedup':>8}")
    log_sum = 0.0
    for name in names:
        b, c = base[name], cont[name]
        bt, ct = b["real_time"], c["real_time"]
        unit = b.get("time_unit", "ns")
        if c.get("time_unit", "ns") != unit:
            sys.exit(f"error: time units differ for {name!r}")
        speedup = bt / ct if ct > 0 else float("inf")
        delta = (ct - bt) / bt * 100.0 if bt > 0 else float("inf")
        log_sum += math.log(speedup)
        print(f"{name:<{width}}  {fmt_time(bt, unit):>14}  "
              f"{fmt_time(ct, unit):>14}  {delta:>+7.1f}%  {speedup:>7.2f}x")
    geomean = math.exp(log_sum / len(names))
    print(f"\n{len(names)} benchmark(s) compared; geometric-mean speedup "
          f"{geomean:.2f}x (baseline/contender, >1 = contender faster)")
    if args.counters:
        print_counter_diffs(names, base, cont)
    return 0


if __name__ == "__main__":
    sys.exit(main())
