#!/usr/bin/env bash
# Build bench_e2e (and the mcan-served daemon it drives) from this
# checkout into .bench_build, then run it with the given arguments:
#
#     bash bench/e2e/run.sh --workload rare_can32 --seed 7 --seconds 10 --trace 0
#
# Build output goes to stderr, so the benchmark's result stays the last
# line of stdout.  The first run configures and builds (about a minute on
# 4 cores); later runs only check that the build is current.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
build="$root/.bench_build"

# Configure once; the stamp is written only after a configure succeeded.
if [ ! -f "$build/.configured" ]; then
  generator=()
  if command -v ninja > /dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$root/bench/e2e" -B "$build" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=Release >&2
  touch "$build/.configured"
fi
cmake --build "$build" --target bench_e2e -j "$(nproc)" >&2

exec "$build/bench_e2e" --work-dir "$build/work" "$@"
