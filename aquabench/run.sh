#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources (first run only; later
# runs are an up-to-date check) and runs one workload:
#
#   bash aquabench/run.sh --workload <train_epa|serve_mixed|enumerate_epa> \
#        --seed <n> --seconds <s> --trace <0|1>
#
# The last line of stdout is the JSON result. Build output goes to
# .bench_build/build.log; traces and full results go to .bench_build/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

if [[ ! -f src/CMakeLists.txt ]]; then
  echo "aquabench: no src/ next to aquabench/; run from a full checkout" >&2
  exit 2
fi

build=.bench_build
mkdir -p "$build"
log="$build/build.log"

build_benchmark() {
  local generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S aquabench -B "$build" "${generator[@]}" >"$log" 2>&1
  fi
  cmake --build "$build" --target aquabench -j "$(nproc)" >>"$log" 2>&1
}

# One build at a time per checkout, should runs overlap.
if ! (
  if command -v flock >/dev/null 2>&1; then flock 9; fi
  build_benchmark
) 9>"$build/build.lock"; then
  echo "aquabench: build failed; last lines of $log:" >&2
  tail -n 40 "$log" >&2 || true
  exit 1
fi

# Provenance. The checkout need not be a git repository, so a digest of the
# benchmark and library sources identifies the code in every case.
git_sha=none
git_dirty=-1
if git_sha_out="$(git rev-parse HEAD 2>/dev/null)"; then
  git_sha="$git_sha_out"
  if [[ -n "$(git status --porcelain -- src aquabench 2>/dev/null)" ]]; then git_dirty=1; else git_dirty=0; fi
fi
source_digest="$(find src aquabench -type f -print0 | LC_ALL=C sort -z |
  xargs -0 sha256sum | sha256sum | cut -c1-16)"

exec "$build/aquabench" "$@" --git-sha "$git_sha" --git-dirty "$git_dirty" \
  --source-digest "$source_digest" --out-dir "$build/out"
