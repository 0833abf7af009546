#!/usr/bin/env bash
# Build the benchmark program (Release, into build-benchmark/ at the repo
# root) and run it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --selftest
#
# Without --workload every workload runs in turn, each in its own process.
# Each run prints its metrics by name with their units and ends with one
# JSON result line; the exit status is nonzero if any drive failed its
# checks.  --selftest builds, then runs benchmark/selftest.py.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-benchmark"
workloads=(speed_sweep corridor parked chaos_observed)

workload=""
args=()
selftest=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="${2:?--workload needs a value}"; shift 2 ;;
    --seed|--seconds|--trace) args+=("$1" "${2:?$1 needs a value}"); shift 2 ;;
    --selftest) selftest=1; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no simulator sources next to $here" >&2
  exit 2
fi

# Compiler temporaries stay inside the checkout too.
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja > /dev/null; then generator=(-G Ninja); fi
  if ! cmake -S "$here" -B "$build" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=Release > "$build/configure.log" 2>&1; then
    cat "$build/configure.log" >&2
    rm -f "$build/CMakeCache.txt"
    exit 1
  fi
fi
if ! cmake --build "$build" --target wgtt_bench -j "$(nproc)" \
    > "$build/build.log" 2>&1; then
  cat "$build/build.log" >&2
  exit 1
fi

if [[ $selftest -eq 1 ]]; then
  exec python3 "$here/selftest.py" "$build/wgtt_bench" "$root/BENCHMARK.json"
fi

# Spans (TRACE_<workload>.jsonl) land in the build directory.
cd "$build"
if [[ -n "$workload" ]]; then
  exec ./wgtt_bench --workload "$workload" "${args[@]}"
fi
status=0
for w in "${workloads[@]}"; do
  ./wgtt_bench --workload "$w" "${args[@]}" || status=1
done
exit $status
