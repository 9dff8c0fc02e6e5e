#!/usr/bin/env bash
# Host-cost harness. The paper's outputs are virtual-time numbers, and
# ctest label `pin` compares them with tests/golden/paper/; this script
# measures what producing them costs on this host. It writes
#   BENCH_paper.json    — nproc and build type; wall time and peak RSS
#                         (bench/host_cost) of every `pin` run, each run
#                         alone in a fresh directory under the build dir;
#                         simloop_throughput's events/s
#   BENCH_hotpaths.json — google-benchmark JSON for the micro hot paths
# at the repo root. If any run exits nonzero, the script does too, after
# writing the file.
#
#   bench/run_benches.sh          full run (about two minutes)
#   bench/run_benches.sh --smoke  fast regression gates only: the
#                                 de-noise+diff items/s floor and the
#                                 simulator core events/sec floor. Every gate runs
#                                 and prints its verdict; the script exits
#                                 nonzero if any failed.
#                                 Used by tests/run_sanitized.sh.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"
BUILD="${RDDR_BENCH_BUILD_DIR:-$ROOT/build}"

if [ ! -d "$BUILD" ]; then
  cmake --preset default >/dev/null
fi

if [ "${1:-}" = "--smoke" ]; then
  cmake --build "$BUILD" -j --target micro_hotpaths simloop_throughput \
      >/dev/null

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
  # instances) must stay above DENOISE_FLOOR items/s: 2.5x the pre-SIMD
  # pairwise baseline of ~4.0e7, with ~25% headroom below the 1.3-1.5e8
  # the batched engine measures on the reference machine class (a shared
  # vCPU whose run-to-run spread is ~10%). The regression class this
  # guards against — a kernel losing its vector loop — measured 3.3e7 the
  # one time it happened, far below it.
  DENOISE_FLOOR=1.0e8
  DENOISE_ITEMS=$("$BUILD/bench/micro_hotpaths" \
      --benchmark_filter='BM_DenoiseTokenDetect/500$' \
      --benchmark_format=json 2>/dev/null |
      awk -F': ' '/"items_per_second"/ { gsub(/[,[:space:]]/, "", $2); v=$2 }
                  END { print v }') || DENOISE_ITEMS=0
  gate denoise awk -v v="$DENOISE_ITEMS" -v f="$DENOISE_FLOOR" 'BEGIN {
      printf "denoise+diff: %.3g items/s (floor %.3g)\n", v + 0, f + 0
      exit (v + 0 >= f + 0) ? 0 : 1
    }'

  gate simloop "$BUILD/bench/simloop_throughput" --smoke

  if [ "${#FAILED[@]}" -gt 0 ]; then
    echo "FAIL: smoke gates failed: ${FAILED[*]}" >&2
    exit 1
  fi
  exit 0
fi

cmake --build "$BUILD" -j >/dev/null

echo "== micro hot paths =="
"$BUILD/bench/micro_hotpaths" --benchmark_format=json \
    --benchmark_out="$ROOT/BENCH_hotpaths.json" \
    --benchmark_out_format=json >/dev/null
echo "wrote BENCH_hotpaths.json"

echo "== paper binaries =="
python3 - "$BUILD" "$ROOT" <<'EOF'
import json, os, re, shutil, subprocess, sys

build, root = sys.argv[1:]
failed = []

# Runs cmd alone in a fresh build/bench/timed/<name>/, stdout and stderr
# going to files there, through host_cost; returns its wall_s and
# peak_rss_mb, and its stdout.
def timed(name, cmd):
    cwd = f"{build}/bench/timed/{name}"
    shutil.rmtree(cwd, ignore_errors=True)
    os.makedirs(cwd)
    with open(f"{cwd}/stdout", "w") as out, open(f"{cwd}/stderr", "w") as err:
        rc = subprocess.run([f"{build}/bench/host_cost", f"{cwd}.json"] + cmd,
                            cwd=cwd, stdout=out, stderr=err).returncode
    if rc:
        failed.append(name)
    with open(f"{cwd}.json") as f:
        m = json.load(f)
    print(name, m, "exit", rc)
    with open(f"{cwd}/stdout") as f:
        return m, f.read()

# The timed runs are ctest's `pin` entries: BIN with ARGS, keyed by the
# name of their golden directory.
pins = json.loads(subprocess.run(
    ["ctest", "--test-dir", build, "-L", "pin", "--show-only=json-v1"],
    check=True, capture_output=True, text=True).stdout)["tests"]
runs = {}
for test in pins:
    d = dict(a[2:].split("=", 1) for a in test["command"] if a.startswith("-D"))
    name = os.path.basename(d["DIR"])
    runs[name], _ = timed(name, [d["BIN"]] + d["ARGS"].split())

_, out = timed("simloop_throughput", [f"{build}/bench/simloop_throughput"])

with open(f"{build}/CMakeCache.txt") as f:
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", f.read(), re.M).group(1)
ledger = {
    "host": {"nproc": len(os.sched_getaffinity(0)),
             # CMakeLists.txt builds RelWithDebInfo when none is given.
             "build_type": build_type or "RelWithDebInfo"},
    "runs": runs,
    "simloop_throughput": json.loads(out),
}
with open(f"{root}/BENCH_paper.json", "w") as f:
    json.dump(ledger, f, indent=2)
    f.write("\n")
print("wrote BENCH_paper.json")
if failed:
    sys.exit(f"FAIL: {', '.join(failed)} exited nonzero; see {build}/bench/timed/")
EOF
