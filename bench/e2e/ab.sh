#!/usr/bin/env bash
# A/B measurement of two bench_e2e builds (parent = A, change = B):
# alternating pairs on the same seeds, then `bench_e2e compare`, which
# prints one row per workload and metric with medians, quartiles, B's win
# fraction, "unresolved" where the spread exceeds the metric's bound, and
# the regression verdict against BENCHMARK.json.
#
#     bench/e2e/ab.sh BUILD_A BUILD_B [PAIRS] [SECONDS] [WORKLOAD...]
#
# BUILD_A / BUILD_B are build directories of bench/e2e (each holds its own
# bench_e2e and mcan-served).  PAIRS defaults to 10, SECONDS to
# BENCHMARK.json's run_seconds, WORKLOAD to every workload BUILD_A's
# bench_e2e lists.  Records go to $AB_OUT (default BUILD_A/ab).
# Exit status: that of compare (1 = a regression or a failing workload).
set -euo pipefail

if [ $# -lt 2 ]; then
  sed -n '2,14p' "$0" >&2
  exit 2
fi
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
a=$1
b=$2
pairs=${3:-10}
seconds=${4:-$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")}
shift $(( $# < 4 ? $# : 4 ))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <("$a/bench_e2e" --list-workloads)
fi
out=${AB_OUT:-$a/ab}
rm -rf "$out"
mkdir -p "$out/A" "$out/B"

for ((i = 0; i < pairs; i++)); do
  seed=$((1000 + i))
  # Alternate which side runs first, so drift in the machine's load
  # favours neither.
  if (( i % 2 == 0 )); then order=(A B); else order=(B A); fi
  for w in "${workloads[@]}"; do
    for side in "${order[@]}"; do
      dir=$a
      if [ "$side" = B ]; then dir=$b; fi
      "$dir/bench_e2e" --workload "$w" --seed "$seed" --seconds "$seconds" \
          --out "$out/$side/$(printf '%02d' "$i")-$w.json" > /dev/null
    done
  done
  echo "pair $((i + 1))/$pairs done" >&2
done

exec "$a/bench_e2e" compare "$out"/A/*.json "$out"/B/*.json
