#!/usr/bin/env python3
"""A/B comparison of two checkouts on the repository benchmark.

Runs `benchmark/run.sh --trace 0` of a parent checkout and of a change
checkout in alternating pairs (pair i runs the parent first when i is even,
the change first when it is odd), every run on the same seed and with the
benchmark's own run length, then judges every end-to-end metric of
BENCHMARK.json on every workload:

  gain        the change wins at least 9 of every 10 pairs (ties count for
              neither side) and the medians differ, in the metric's better
              direction, by more than the parent's interquartile range;
  ok          the change's median is no worse than the parent's by more
              than the metric's bound;
  unresolved  the spread of either side (interquartile range / median) is
              wider than the bound, and not every change run reads better
              than every parent run;
  REGRESSION  the change's median is worse by more than the bound.

The simulated metrics (goodput, accuracy, switch latency) repeat exactly on
one seed, so here they are judged against a 1 % bound.  The looser bounds of
BENCHMARK.json are sized for their spread from seed to seed.

It prints each side's median and quartiles, then one row per workload.
Exit status 1 on a regression or on any run whose drives failed their
checks.  Python standard library only.

usage: compare.py PARENT_DIR CHANGE_DIR [--pairs N] [--seed S]
                  [--workload W ...]
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


# Simulated metrics: bit-identical across runs of one seed.
SIMULATED = {"goodput_mbps", "accuracy_pct", "switch_ms_p50", "switch_ms_p90"}
SIMULATED_BOUND = 0.01


def run_side(checkout, workload, seed):
    checkout = Path(checkout).resolve()
    cmd = ["bash", str(checkout / "benchmark" / "run.sh"),
           "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"compare.py: no result from {' '.join(cmd)}\n{proc.stderr}")
    return {"failed": result["failed"], "correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def collect(args, bench):
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for w in workloads:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                runs[w][side].append(run_side(checkout, w, args.seed))
            print(f"  {w}: pair {i + 1}/{args.pairs} done", flush=True)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, parent, change):
    """Returns (verdict, relative change of the median, detail line)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    if metric["name"] in SIMULATED:
        bound = min(bound, SIMULATED_BOUND)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)

    def better(a, b):
        return a < b if lower else a > b

    wins = sum(better(c, p) for p, c in zip(parent, change))
    delta = (c_med - p_med) / p_med if p_med else 0.0
    improvement = (p_med - c_med) if lower else (c_med - p_med)
    worse = -improvement / p_med if p_med else 0.0
    spread = max((p_q3 - p_q1) / p_med if p_med else 0.0,
                 (c_q3 - c_q1) / c_med if c_med else 0.0)
    all_better = all(better(c, p) for c in change for p in parent)
    if wins >= 0.9 * len(parent) and improvement > p_q3 - p_q1:
        v = "gain"
    elif all_better or (spread <= bound and worse <= bound):
        v = "ok"
    elif spread > bound:
        v = "unresolved"
    else:
        v = "REGRESSION"
    detail = (f"parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]  "
              f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]  "
              f"wins {wins}/{len(parent)}  spread {spread:.1%}  "
              f"bound {bound:.0%}")
    return v, delta, detail


def report(runs, bench):
    metrics = bench["end_to_end"]
    bad = False
    rows = []
    for w, sides in runs.items():
        failed = {s: sum(r["failed"] for r in sides[s]) for s in sides}
        print(f"\n{w}  ({len(sides['parent'])} pairs; failed drives: parent "
              f"{failed['parent']}, change {failed['change']})")
        cells = []
        for m in metrics:
            parent = [r["metrics"][m["name"]] for r in sides["parent"]]
            change = [r["metrics"][m["name"]] for r in sides["change"]]
            v, delta, detail = verdict(m, parent, change)
            bad |= v == "REGRESSION"
            print(f"  {m['name']:<14} {v:<11} {delta:+7.2%}  {detail}")
            cells.append(f"{v} {delta:+.1%}")
        bad |= failed["change"] > 0 or failed["parent"] > 0
        status = "FAILED" if failed["change"] or failed["parent"] else ""
        rows.append((w, cells, status))
    names = [m["name"] for m in metrics]
    width = max(18, *(len(n) + 2 for n in names))
    print("\n" + f"{'workload':<16}" + "".join(f"{n:<{width}}" for n in names))
    for w, cells, status in rows:
        print(f"{w:<16}" + "".join(f"{c:<{width}}" for c in cells) + status)
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="parent checkout")
    ap.add_argument("change", help="change checkout")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    if args.pairs < 10:
        ap.error("the A/B rule needs at least 10 pairs")
    with open(Path(args.parent) / "BENCHMARK.json") as f:
        bench = json.load(f)
    return report(collect(args, bench), bench)


if __name__ == "__main__":
    sys.exit(main())
