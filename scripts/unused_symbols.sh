#!/usr/bin/env bash
# Reachability gate: lists every function that src/ defines and no product
# binary reaches, and fails unless that list is exactly the allowlist in
# scripts/test_oracles.txt (test oracles and test seams, each with a reason).
#
# How it scans. The repository is built at -O0 with -ffunction-sections and
# every program is linked with --gc-sections, so a program keeps exactly the
# functions that some path from its main(), or a vtable it keeps, calls. The
# products are every example_* and bench_* program and the aquabench program,
# built from aquabench/CMakeLists.txt (unedited) in a subdirectory. The
# candidates are the strong global text symbols ('T' in nm) of libaqua_*.a.
# A candidate in no product is unreached. Names are compared demangled, so a
# constructor's two symbols (complete and base object) count once.
#
# Blind spots, which the scan cannot see and review must:
#   - inline, constexpr, template and header-only functions: they are weak
#     or local symbols, not candidates, so a test-only one goes unnoticed;
#   - a test-only branch or parameter inside a reached function: the
#     function is linked, so the scan counts it as reached (the former
#     Darcy-Weisbach head-loss model, a SolverOptions field that only a
#     test set, was one);
#   - a function reached by a product only on a path that never runs.
#
# Exit status: 0 when the unreached set equals the allowlist; 1 when an
# unreached symbol is not listed, when a listed symbol is stale (reached, or
# no longer defined), or when a listed symbol is linked by no test program
# (an oracle no test calls is dead code); 2 when the build fails.
#
# Usage: scripts/unused_symbols.sh [build-dir]   (default: build-unused;
#        absolute, or relative to the repository root)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build-unused}
ALLOWLIST=scripts/test_oracles.txt
generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
       -DCMAKE_CXX_FLAGS=-ffunction-sections
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

log="$BUILD_DIR/unused_symbols.log"
mkdir -p "$BUILD_DIR"
if ! { cmake -S . -B "$BUILD_DIR" "${generator[@]}" "${flags[@]}" &&
       cmake --build "$BUILD_DIR" -j "$(nproc)" &&
       cmake -S aquabench -B "$BUILD_DIR/aquabench" "${generator[@]}" "${flags[@]}" &&
       cmake --build "$BUILD_DIR/aquabench" --target aquabench -j "$(nproc)"; } >"$log" 2>&1; then
  echo "unused_symbols: build failed; last lines of $log:" >&2
  tail -n 40 "$log" >&2
  exit 2
fi

work="$BUILD_DIR/unused_symbols"
mkdir -p "$work"

# Demangled names of the defined symbols whose nm type matches $1, one
# per line ("no symbols" notes of empty archive members are dropped).
symbols() {
  local types=$1
  shift
  nm -C --defined-only "$@" 2>/dev/null |
    awk -v types="$types" '$2 ~ types { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
    LC_ALL=C sort -u
}

symbols '^T$' "$BUILD_DIR"/src/*/libaqua_*.a >"$work/defined.txt"
symbols '^[TtWwi]$' "$BUILD_DIR/aquabench/aquabench" "$BUILD_DIR"/examples/example_* \
  "$BUILD_DIR"/bench/bench_* >"$work/products.txt"
symbols '^[TtWwi]$' "$BUILD_DIR"/tests/test_* >"$work/tests.txt"

LC_ALL=C comm -23 "$work/defined.txt" "$work/products.txt" >"$work/unreached.txt"
sed -e 's/#.*$//' -e 's/[[:space:]]*$//' -e 's/^[[:space:]]*//' "$ALLOWLIST" |
  awk 'NF' | LC_ALL=C sort -u >"$work/allowed.txt"

unlisted=$(LC_ALL=C comm -23 "$work/unreached.txt" "$work/allowed.txt")
stale=$(LC_ALL=C comm -13 "$work/unreached.txt" "$work/allowed.txt")
untested=$(LC_ALL=C comm -12 "$work/unreached.txt" "$work/allowed.txt" |
  LC_ALL=C comm -23 - "$work/tests.txt")

echo "unused_symbols: $(wc -l <"$work/defined.txt") functions defined in src/," \
     "$(wc -l <"$work/unreached.txt") reached by no product program:"
sed 's/^/  /' "$work/unreached.txt"

status=0
if [[ -n "$unlisted" ]]; then
  echo "unused_symbols: reached by no product and not in $ALLOWLIST (delete them, or list them with a reason):" >&2
  echo "$unlisted" | sed 's/^/  /' >&2
  status=1
fi
if [[ -n "$stale" ]]; then
  echo "unused_symbols: stale entries in $ALLOWLIST (reached by a product, or no longer defined):" >&2
  echo "$stale" | sed 's/^/  /' >&2
  status=1
fi
if [[ -n "$untested" ]]; then
  echo "unused_symbols: entries in $ALLOWLIST that no test program links:" >&2
  echo "$untested" | sed 's/^/  /' >&2
  status=1
fi
exit $status
