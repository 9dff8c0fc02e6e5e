#!/usr/bin/env bash
# Perf trajectory harness: builds the default preset and emits
#   BENCH_simloop.json  — simulator core events/sec, fan-out copy ratio,
#                         and fig5-driver wall time (vs recorded baselines)
#   BENCH_hotpaths.json — google-benchmark JSON for the micro hot paths
#   BENCH_scaleout.json — sharded-frontier sweep (goodput vs offered load,
#                         shed latency; self-checks exit nonzero)
#   BENCH_table1.json   — Table I rows replayed through the three-tier
#                         generated topology with execution-index
#                         attribution checks (see bench/table1_graph.cc)
# at the repo root. Committed snapshots document the perf trajectory PR
# over PR.
#
#   bench/run_benches.sh          full run (a few minutes)
#   bench/run_benches.sh --smoke  fast regression gates only: storage
#                                 recovery, the de-noise+diff items/s floor,
#                                 the islands oracle/scaling floor and the
#                                 simulator core events/sec floor
#                                 (RDDR_SIMLOOP_FLOOR, default 1e6). Every
#                                 gate runs and prints its verdict; the
#                                 script exits nonzero if any failed.
#                                 Used by tests/run_sanitized.sh.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"
BUILD="${RDDR_BENCH_BUILD_DIR:-$ROOT/build}"

if [ ! -d "$BUILD" ]; then
  cmake --preset default >/dev/null
fi
cmake --build "$BUILD" -j --target simloop_throughput micro_hotpaths \
    fig5_throughput_latency fig5_scaleout storage_recovery fuzz_sweep \
    table1_graph >/dev/null

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

  # Storage gate first (deterministic invariants: recovery correctness,
  # delta-vs-snapshot ratio, trace determinism), then the data-plane and
  # events/sec floors.
  gate storage "$BUILD/bench/storage_recovery" --smoke

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

# Wall time of the full fig5 driver: the end-to-end number a person feels
# when regenerating the paper figures. Baseline measured at the seed
# commit, same build type, same machine class as the other baselines.
echo "== fig5 driver wall time =="
FIG5_BASELINE_S=3.245
start=$(date +%s.%N)
"$BUILD/bench/fig5_throughput_latency" >/dev/null
end=$(date +%s.%N)
FIG5_WALL_S=$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f", b - a }')
FIG5_SPEEDUP=$(awk -v w="$FIG5_WALL_S" -v b="$FIG5_BASELINE_S" \
    'BEGIN { printf "%.2f", b / w }')
echo "fig5 driver: ${FIG5_WALL_S}s (baseline ${FIG5_BASELINE_S}s, ${FIG5_SPEEDUP}x)"

cat > "$ROOT/BENCH_simloop.json" <<EOF
{
  "bench": $SIMLOOP_JSON,
  "fig5_driver": {
    "wall_s": $FIG5_WALL_S,
    "baseline_wall_s": $FIG5_BASELINE_S,
    "speedup": $FIG5_SPEEDUP
  }
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

# Adversarial fuzz sweep: 20 seeds x every mutation family x every
# generated topology, baseline vs miner-tuned denoiser rules (exits
# nonzero on any invariant violation, determinism break, or if the miner
# fails to lower the benign-divergence rate).
echo "== adversarial fuzz sweep =="
"$BUILD/bench/fuzz_sweep" > "$ROOT/BENCH_fuzz.json"
echo "wrote BENCH_fuzz.json"

# Graph-wide attribution replay: all Table I rows through the three-tier
# generated topology, asserting execution-index attribution of every
# divergence to the exact (request, hop, call site), per-callsite dedup,
# and byte-identical reports across islands {1, 2, 4} (exits nonzero on
# any violation; the per-row attribution report goes to stderr).
echo "== table1 graph attribution =="
"$BUILD/bench/table1_graph" > "$ROOT/BENCH_table1.json"
echo "wrote BENCH_table1.json"
