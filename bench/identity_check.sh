#!/usr/bin/env bash
# Byte-identity check between two builds of this repository.
#
#   bench/identity_check.sh <parent-build> <change-build> [out-dir]
#
# Runs every built example and every bench binary of both build trees (plus
# the --smoke variant of each bench that has one), each in its own scratch
# working directory so files the binaries write land next to their output,
# then diffs stdout, stderr and those files. Exits non-zero on any
# difference. Host timings differ on every run, so simloop_throughput and
# micro_hotpaths are skipped, and fig5_scaleout and storage_recovery, whose
# full runs print wall times, run only with --smoke. A refactor that must
# not change behaviour has to pass this against the build of its parent
# commit.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 <parent-build> <change-build> [out-dir]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
out=${3:-$(mktemp -d)}
mkdir -p "$out"
out=$(cd "$out" && pwd)

run() {  # run <out-dir> <name> <binary> [args...]
  local dir=$1/$2 bin=$3
  shift 3
  mkdir -p "$dir"
  (cd "$dir" && "$bin" "$@" > stdout 2> stderr) || echo "exit $?" > "$dir/status"
}

run_all() {  # run_all <build-dir> <out-dir>
  local b name
  for b in "$1"/examples/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    run "$2" "$(basename "$b")" "$b"
  done
  for b in "$1"/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    name=$(basename "$b")
    case "$name" in
      simloop_throughput|micro_hotpaths) continue ;;
      fig5_scaleout|storage_recovery) ;;
      *) run "$2" "$name" "$b" ;;
    esac
    if grep -qa -- '--smoke' "$b"; then run "$2" "$name.smoke" "$b" --smoke; fi
  done
}

rm -rf "$out/parent" "$out/change"
run_all "$parent" "$out/parent" &
run_all "$change" "$out/change"
wait

if diff -r "$out/parent" "$out/change"; then
  echo "identity_check: $(ls "$out/change" | wc -l) runs byte-identical ($out)"
else
  echo "identity_check: outputs differ ($out)" >&2
  exit 1
fi
