#!/usr/bin/env bash
# Builds and runs the figure-reproduction benches, then copies their
# machine-readable BENCH_*.json reports into the repo root so committed
# reports stay next to EXPERIMENTS.md.
#
# Usage: scripts/run_benches.sh [name ...]
#        e.g. scripts/run_benches.sh profile_fit phase1_training
#        With no arguments, every bench_* binary in the build tree runs.
#        AQUA_SCALE scales scenario counts (see bench/bench_util.hpp).
#
# Benches that gate correctness (bench_robustness's replay-vs-full-run
# identity gate, the bit-identity gates in bench_phase1_training /
# bench_phase2_inference) record each gate in a bench::Gates and return
# its exit status, so a failed gate exits nonzero, which the failure loop
# below turns into this script's nonzero exit.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
cmake -B "$BUILD_DIR" -S . > /dev/null
if [[ $# -gt 0 ]]; then
  targets=()
  for name in "$@"; do targets+=("bench_${name}"); done
  cmake --build "$BUILD_DIR" -j --target "${targets[@]}"
else
  cmake --build "$BUILD_DIR" -j
fi

cd "$BUILD_DIR/bench"
if [[ $# -gt 0 ]]; then
  benches=()
  for name in "$@"; do benches+=("./bench_${name}"); done
else
  mapfile -t benches < <(find . -maxdepth 1 -name 'bench_*' -type f | sort)
fi

# Run every bench even when one fails (a crashed bench must not mask the
# others' reports), then propagate a nonzero exit naming the failures —
# `set -e` alone would abort mid-loop on the first bad bench.
failed=()
for bench in "${benches[@]}"; do
  echo "== ${bench#./} =="
  if [[ "${bench#./}" == bench_micro_hydraulics ]]; then
    # Skip the google-benchmark micro suite (no BENCH json) and run only
    # the GGA node-count sweep that writes the BENCH json.
    "$bench" --benchmark_filter='^$' || failed+=("${bench#./}")
  else
    "$bench" || failed+=("${bench#./}")
  fi
done

cd ../..
shopt -s nullglob
for report in "$BUILD_DIR"/bench/BENCH_*.json; do
  cp "$report" .
  echo "collected $(basename "$report")"
done

if [[ ${#failed[@]} -gt 0 ]]; then
  echo "FAILED benches: ${failed[*]}" >&2
  exit 1
fi
