#!/usr/bin/env bash
# Build and run the test suite under the sanitizer presets.
#
#   tests/run_sanitized.sh [ctest-args...]
#
# Uses the `asan` (ASan+UBSan) and `ubsan` (UBSan only) CMake presets
# (build dirs: build-asan/, build-ubsan/). Both lanes run all of ctest,
# which includes label `pin`: every example and bench run, each exiting
# 0 with stdout, stderr and written files byte-identical to its golden under
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

# Perf smoke (optimised build, not sanitized — sanitizers skew timing):
# the simulator core must stay above the events/sec floor. See
# bench/run_benches.sh for the full trajectory run.
bench/run_benches.sh --smoke
