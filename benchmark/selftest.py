#!/usr/bin/env python3
"""Selftest for wgtt_bench (run through `benchmark/run.sh --selftest`).

Runs every workload declared in BENCHMARK.json once per trace mode and per
seed (42 and 7) with --quick (one pass on short horizons) and checks that:

  * the last stdout line is the result object with exactly the keys
    correct / attempted / failed / metrics, and the run passed its checks;
  * the metric names and units equal the ones BENCHMARK.json declares
    (end_to_end for --trace 0, per_layer for --trace 1), every value is a
    finite number, and every end-to-end value is nonzero;
  * changing --seed changes the generated inputs (the fingerprint the
    program prints on its first line) but not the set of metric names.

usage: selftest.py PATH/TO/wgtt_bench PATH/TO/BENCHMARK.json
"""
import json
import math
import re
import subprocess
import sys

SEEDS = (42, 7)


def run(program, workload, seed, trace):
    proc = subprocess.run(
        [program, "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"no output (exit {proc.returncode}): {proc.stderr}")
    match = re.search(r"inputs ([0-9a-f]{16})", lines[0])
    if not match:
        raise AssertionError(f"no inputs fingerprint in {lines[0]!r}")
    result = json.loads(lines[-1])
    return proc.returncode, match.group(1), result


def check(program, bench_path):
    with open(bench_path) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            fingerprints = {}
            name_sets = []
            for seed in SEEDS:
                where = f"{workload} --trace {trace} --seed {seed}"
                before = len(problems)
                try:
                    code, fingerprint, result = run(program, workload, seed,
                                                    trace)
                except (AssertionError, ValueError, subprocess.SubprocessError) as e:
                    problems.append(f"{where}: {e}")
                    continue
                fingerprints[seed] = fingerprint
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{where}: result keys {sorted(result)}")
                    continue
                if code != 0 or result["correct"] is not True or result["failed"]:
                    problems.append(f"{where}: exit {code}, failed {result['failed']}")
                metrics = result["metrics"]
                emitted = {name: m.get("unit") for name, m in metrics.items()}
                if emitted != declared[trace]:
                    missing = sorted(set(declared[trace]) - set(emitted))
                    extra = sorted(set(emitted) - set(declared[trace]))
                    units = sorted(n for n in set(emitted) & set(declared[trace])
                                   if emitted[n] != declared[trace][n])
                    problems.append(f"{where}: missing {missing}, undeclared "
                                    f"{extra}, unit mismatch {units}")
                for name, m in metrics.items():
                    value = m.get("value")
                    if not isinstance(value, (int, float)) or not math.isfinite(value):
                        problems.append(f"{where}: {name} = {value!r}")
                    elif trace == 0 and value == 0:
                        problems.append(f"{where}: end-to-end {name} is 0")
                name_sets.append(frozenset(metrics))
                verdict = "ok  " if len(problems) == before else "BAD "
                print(f"{verdict}{where}  inputs {fingerprint}  "
                      f"{len(metrics)} metrics", flush=True)
            if len(set(fingerprints.values())) != len(SEEDS):
                problems.append(f"{workload} --trace {trace}: seeds {SEEDS} "
                                f"gave the same inputs")
            if len(set(name_sets)) > 1:
                problems.append(f"{workload} --trace {trace}: metric names "
                                f"depend on the seed")
    return problems


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    problems = check(sys.argv[1], sys.argv[2])
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
