#!/usr/bin/env bash
# Build and run the test suite under the sanitizer presets.
#
#   tests/run_sanitized.sh [ctest-args...]
#
# Uses the `asan` (ASan+UBSan), `ubsan` (UBSan only) and `tsan`
# (ThreadSanitizer) CMake presets (build dirs: build-asan/, build-ubsan/,
# build-tsan/). The asan and ubsan lanes run all of ctest, which
# includes label `pin`: every example and bench run, each exiting 0 with
# stdout, stderr and written files byte-identical to its golden under
# tests/golden/paper/ (bench/CMakeLists.txt), so each bench's own
# self-checks and the paper's outputs are checked under the sanitizers
# too. Any extra arguments are passed through to ctest. Note that ctest
# sees the gtest-discovered *test* names (Suite.Case), not binary names,
# e.g.
#   tests/run_sanitized.sh -R 'FaultTest|FaultNetTest'
#   tests/run_sanitized.sh -L pin
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

# Leak checking is on: the network releases a connection's handlers once
# its close is delivered and when the Network is destroyed, which breaks
# the handler -> session -> connection cycles (netsim/network.h), so
# every test, example and bench run frees what it allocates.
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"

for preset in asan ubsan; do
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$(nproc)"
  ctest --test-dir "build-$preset" --output-on-failure -j "$(nproc)" "$@"
done

# ThreadSanitizer lane: the multi-island executor is the repo's only
# real concurrency, so tsan runs the parallel-focused suites (executor,
# netsim, frontier, chaos/fuzz island property tests) plus the 16-shard
# island gate. RDDR_PARALLEL_THREADS=2 forces real worker threads even
# on single-core CI boxes, where the hardware default would collapse to
# one thread and tsan would have nothing to watch. Thread count never
# affects results — only what tsan gets to race-check.
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
RDDR_PARALLEL_THREADS=2 \
  ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
      -R 'Parallel|Simulator|Network|Frontier|Fault' "$@"
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" RDDR_PARALLEL_THREADS=2 \
  "$repo/build-tsan/bench/fig5_scaleout" --smoke --islands=4 >/dev/null

# Attribution under tsan: the islands={1,2} replay runs the multi-island
# executor with real worker threads; the byte-identity check then proves
# execution indices are unaffected by scheduling.
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" RDDR_PARALLEL_THREADS=2 \
  "$repo/build-tsan/bench/table1_graph" --smoke

# Perf smoke (optimised build, not sanitized — sanitizers skew timing):
# the simulator core must stay above the events/sec floor. See
# bench/run_benches.sh for the full trajectory run.
bench/run_benches.sh --smoke
