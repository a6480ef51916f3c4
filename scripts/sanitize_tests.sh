#!/usr/bin/env bash
# Tier-1 test suite under sanitizers, CI-friendly (non-zero exit on any
# build or test failure). Two passes in separate build dirs:
#
#   1. ASan+UBSan (cmake -DAQUA_SANITIZE=ON, which adds
#      float-cast-overflow and -fno-sanitize-recover=all, so a UBSan
#      finding aborts its test instead of printing and passing): the
#      full suite, so the replay engine pool, the thread-pool batch
#      paths, the hostile .inp corpus (test_inp_io), and the compiled
#      forest kernel's plane indexing (test_compiled_forest) get
#      memory/UB checking routinely.
#   2. TSan (cmake -DAQUA_TSAN=ON): the unit+concurrency+serving+kernel
#      labels, which include test_concurrency's shared-model /
#      shared-engine races, its variant-batch suite (mixed
#      replay-pool + full-run-fallback SnapshotBatch builds from the
#      thread pool and from raw threads) and its ConcurrentEnumeration
#      suite (one shared EnumerationLocalizer called from the main
#      thread, from a pool worker and from raw threads, all cloning the
#      same solver prototypes), test_serving's daemon
#      submit/swap/worker thread interleavings, and
#      test_compiled_forest's concurrent tile calls on one shared
#      compiled model. TSan builds compile the
#      multiversioned SIMD kernels default-arch (common/cpu_dispatch.hpp):
#      target_clones ifunc resolvers would otherwise run before the TSan
#      runtime initializes and crash at startup; clones are bit-identical
#      so only sanitized-build speed is lost.
#
# Both passes build with -DAQUA_WERROR=ON: a warning under -Wall -Wextra
# fails the run like a test failure does.
#
# Usage: scripts/sanitize_tests.sh [asan-build-dir] [tsan-build-dir]
#        (defaults: build-asan build-tsan)
set -euo pipefail
cd "$(dirname "$0")/.."

ASAN_DIR=${1:-build-asan}
TSAN_DIR=${2:-build-tsan}

echo "== pass 1/2: ASan + UBSan (${ASAN_DIR}) =="
cmake -B "$ASAN_DIR" -S . -DAQUA_SANITIZE=ON -DAQUA_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$ASAN_DIR" -j "$(nproc)"
ctest --test-dir "$ASAN_DIR" --output-on-failure -j "$(nproc)"

echo "== pass 2/2: TSan (${TSAN_DIR}) =="
cmake -B "$TSAN_DIR" -S . -DAQUA_TSAN=ON -DAQUA_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_DIR" -j "$(nproc)"
# scripts/tsan.supp silences libstdc++'s un-annotated atomic<shared_ptr>
# internals (see the file for details); races in our own code still fail.
TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp" \
  ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$(nproc)" -L "unit|concurrency|serving|kernel"
