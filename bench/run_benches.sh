#!/usr/bin/env bash
# Perf trajectory harness: builds the default preset and emits
#   BENCH_simloop.json  — simulator core events/sec, fan-out copy ratio,
#                         fig5-driver and fig4 wall times (vs recorded
#                         baselines) and the wall times of fig6, the two
#                         slowest ablations and fuzz_sweep
#   BENCH_hotpaths.json — google-benchmark JSON for the micro hot paths
#   BENCH_scaleout.json — sharded-frontier sweep (goodput vs offered load,
#                         shed latency; self-checks exit nonzero)
# at the repo root. Committed snapshots document the perf trajectory PR
# over PR. The virtual-time outputs of the paper binaries are not here:
# ctest label `pin` compares them with tests/golden/paper/.
#
#   bench/run_benches.sh          full run (a few minutes)
#   bench/run_benches.sh --smoke  fast regression gates only: the
#                                 de-noise+diff items/s floor, the islands
#                                 oracle/scaling floor and the simulator
#                                 core events/sec floor
#                                 (RDDR_SIMLOOP_FLOOR, default 1e6). Every
#                                 gate runs and prints its verdict; the
#                                 script exits nonzero if any failed.
#                                 Used by tests/run_sanitized.sh.
#                                 storage_recovery --smoke runs in tier-1
#                                 as the pin bench.storage_recovery_smoke.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"
BUILD="${RDDR_BENCH_BUILD_DIR:-$ROOT/build}"

if [ ! -d "$BUILD" ]; then
  cmake --preset default >/dev/null
fi
cmake --build "$BUILD" -j --target simloop_throughput micro_hotpaths \
    fig5_throughput_latency fig4_tpch_overhead fig5_scaleout storage_recovery \
    fig6_resource_timeseries ablation_overhead_vs_n ablation_distributed_hosts \
    fuzz_sweep >/dev/null

if [ "${1:-}" = "--smoke" ]; then
  # Runs one gate, prints its verdict on stderr and records a failure; a
  # failing gate never stops the later ones.
  FAILED=()
  gate() {
    local name="$1"
    shift
    if "$@"; then
      echo "gate $name: PASS" >&2
    else
      echo "gate $name: FAIL" >&2
      FAILED+=("$name")
    fi
  }

  # De-noise + diff floor: BM_DenoiseTokenDetect/500 (items = lines x 3
  # instances) must stay above RDDR_DENOISE_FLOOR items/s. Default 1.0e8:
  # 2.5x the pre-SIMD pairwise baseline of ~4.0e7, with ~25% headroom
  # below the 1.3-1.5e8 the batched engine measures on the reference
  # machine class (a shared vCPU whose run-to-run spread is ~10%). The
  # regression class this guards against — a kernel losing its vector
  # loop — measured 3.3e7 the one time it happened, far below it.
  DENOISE_FLOOR="${RDDR_DENOISE_FLOOR:-1.0e8}"
  DENOISE_ITEMS=$("$BUILD/bench/micro_hotpaths" \
      --benchmark_filter='BM_DenoiseTokenDetect/500$' \
      --benchmark_format=json 2>/dev/null |
      awk -F': ' '/"items_per_second"/ { gsub(/[,[:space:]]/, "", $2); v=$2 }
                  END { print v }') || DENOISE_ITEMS=0
  gate denoise awk -v v="$DENOISE_ITEMS" -v f="$DENOISE_FLOOR" 'BEGIN {
      printf "denoise+diff: %.3g items/s (floor %.3g)\n", v + 0, f + 0
      exit (v + 0 >= f + 0) ? 0 : 1
    }'

  # Island scaling floor: the 16-shard fig5 point on the partitioned
  # event loop must stay byte-identical to the islands=1 oracle and keep
  # model_speedup >= 1.8x at 4 islands (JSON dropped; checks on stderr).
  gate islands "$BUILD/bench/fig5_scaleout" --smoke --islands=4 >/dev/null

  gate simloop "$BUILD/bench/simloop_throughput" --smoke

  if [ "${#FAILED[@]}" -gt 0 ]; then
    echo "FAIL: smoke gates failed: ${FAILED[*]}" >&2
    exit 1
  fi
  exit 0
fi

echo "== simulator core + data plane =="
SIMLOOP_JSON="$("$BUILD/bench/simloop_throughput")"
echo "$SIMLOOP_JSON"

# Wall time of the full fig5 driver and of fig4: the end-to-end numbers a
# person feels when regenerating the paper figures. Baselines measured with
# the same build type on the same machine class as the other baselines.
echo "== fig5 driver and fig4 wall time =="
# Prints the wall time of one run of bench binary $1, in seconds.
wall_s() {
  local start end
  start=$(date +%s.%N)
  "$BUILD/bench/$1" >/dev/null
  end=$(date +%s.%N)
  awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f", b - a }'
}
speedup() { awk -v w="$1" -v b="$2" 'BEGIN { printf "%.2f", b / w }'; }

# fig5 baseline: the seed commit.
FIG5_BASELINE_S=3.245
FIG5_WALL_S=$(wall_s fig5_throughput_latency)
FIG5_SPEEDUP=$(speedup "$FIG5_WALL_S" "$FIG5_BASELINE_S")
echo "fig5 driver: ${FIG5_WALL_S}s (baseline ${FIG5_BASELINE_S}s, ${FIG5_SPEEDUP}x)"

# fig4 (TPC-H under 3-version RDDR) is bound by sqldb join execution; its
# baseline is the nested-loop executor, before join levels probed a
# per-statement key table (4 shared vCPUs).
FIG4_BASELINE_S=2.09
FIG4_WALL_S=$(wall_s fig4_tpch_overhead)
FIG4_SPEEDUP=$(speedup "$FIG4_WALL_S" "$FIG4_BASELINE_S")
echo "fig4: ${FIG4_WALL_S}s (baseline ${FIG4_BASELINE_S}s, ${FIG4_SPEEDUP}x)"

# The other paper binaries that take over a second, wall time only.
OTHER_WALL_JSON=""
for b in fig6_resource_timeseries ablation_overhead_vs_n \
         ablation_distributed_hosts fuzz_sweep; do
  w=$(wall_s "$b")
  echo "$b: ${w}s"
  OTHER_WALL_JSON+=",
  \"$b\": { \"wall_s\": $w }"
done

cat > "$ROOT/BENCH_simloop.json" <<EOF
{
  "bench": $SIMLOOP_JSON,
  "fig5_driver": {
    "wall_s": $FIG5_WALL_S,
    "baseline_wall_s": $FIG5_BASELINE_S,
    "speedup": $FIG5_SPEEDUP
  },
  "fig4": {
    "wall_s": $FIG4_WALL_S,
    "baseline_wall_s": $FIG4_BASELINE_S,
    "speedup": $FIG4_SPEEDUP
  }$OTHER_WALL_JSON
}
EOF
echo "wrote BENCH_simloop.json"

echo "== micro hot paths =="
"$BUILD/bench/micro_hotpaths" --benchmark_format=json \
    --benchmark_out="$ROOT/BENCH_hotpaths.json" \
    --benchmark_out_format=json >/dev/null
echo "wrote BENCH_hotpaths.json"

# Scale-out sweep: goodput vs offered load for 1 vs 4 frontier shards,
# with admission-control self-checks (the bench exits nonzero if the
# scale-out ratio, shed latency, shed protocol, or determinism regress).
echo "== scale-out front tier =="
"$BUILD/bench/fig5_scaleout" > "$ROOT/BENCH_scaleout.json"
echo "wrote BENCH_scaleout.json"

# Durable storage: cold-start redo cost, buffer-pool hit rate vs frame
# budget, and incremental-vs-full resync bytes; exits nonzero if the
# recovery/determinism/delta-size self-checks fail.
echo "== durable storage recovery =="
"$BUILD/bench/storage_recovery" > "$ROOT/BENCH_storage.json"
echo "wrote BENCH_storage.json"
