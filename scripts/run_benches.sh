#!/usr/bin/env bash
# Builds and runs the figure-reproduction benches, then copies their
# machine-readable BENCH_*.json reports into the repo root so committed
# reports stay next to EXPERIMENTS.md.
#
# Usage: scripts/run_benches.sh [name ...]
#        e.g. scripts/run_benches.sh profile_fit phase1_training
#        With no arguments, every bench that bench/*.cpp defines runs
#        (bench/<name>.cpp builds bench_<name>); other bench_* files left
#        in a reused build tree are ignored.
#        BUILD_DIR (default build) is the CMake build tree, absolute or
#        relative to the repo root. AQUA_SCALE scales scenario counts (see
#        bench/bench_util.hpp).
#
# Benches that gate correctness (bench_robustness's replay-vs-full-run
# identity gate, the bit-identity gates in bench_phase1_training /
# bench_phase2_inference) record each gate in a bench::Gates and return
# its exit status, so a failed gate exits nonzero, which the failure loop
# below turns into this script's nonzero exit. A bench whose report could
# not be written exits nonzero too. Reports left by earlier runs are
# deleted first, so only this run's reports are collected.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT=$(pwd)

BUILD_DIR=${BUILD_DIR:-build}
mkdir -p "$BUILD_DIR"
BUILD_DIR=$(cd "$BUILD_DIR" && pwd)

names=("$@")
if [[ ${#names[@]} -eq 0 ]]; then
  for source in "$ROOT"/bench/*.cpp; do
    names+=("$(basename "$source" .cpp)")
  done
fi
targets=()
for name in "${names[@]}"; do targets+=("bench_${name}"); done

cmake -B "$BUILD_DIR" -S "$ROOT" > /dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${targets[@]}"

cd "$BUILD_DIR/bench"
rm -f BENCH_*.json

# Run every bench even when one fails (a crashed bench must not mask the
# others' reports), then propagate a nonzero exit naming the failures —
# `set -e` alone would abort mid-loop on the first bad bench.
failed=()
for bench in "${targets[@]}"; do
  echo "== ${bench} =="
  if [[ "${bench}" == bench_micro_hydraulics ]]; then
    # Skip the google-benchmark micro suite (no BENCH json) and run only
    # the GGA node-count sweep that writes the BENCH json.
    "./$bench" --benchmark_filter='^$' || failed+=("${bench}")
  else
    "./$bench" || failed+=("${bench}")
  fi
done

shopt -s nullglob
for report in "$BUILD_DIR"/bench/BENCH_*.json; do
  cp "$report" "$ROOT/"
  echo "collected $(basename "$report")"
done

if [[ ${#failed[@]} -gt 0 ]]; then
  echo "FAILED benches: ${failed[*]}" >&2
  exit 1
fi
