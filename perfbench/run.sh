#!/usr/bin/env bash
# Builds the benchmark from this checkout (into .bench_build/) and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload online_light --seed 11 --seconds 10 --trace 0
#   bash perfbench/run.sh --selftest      # the accounting tests only
#
# Everything it writes stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f src/CMakeLists.txt || ! -f perfbench/CMakeLists.txt ]]; then
  echo "perfbench: run from the repository root (needs src/ and perfbench/)" >&2
  exit 2
fi

root=$(pwd)
build=.bench_build/perfbench
log=.bench_build/perfbench-build.log
mkdir -p "$build" .bench_build/tmp
# The library's socket feed spools under the temp directory; keep it here.
export TMPDIR="$root/.bench_build/tmp"
jobs=$(nproc 2>/dev/null || echo 2)

build_targets() {
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S perfbench -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" -j "$jobs" --target "$@"
}

if ! build_targets falcc_perfbench perfbench_selftest >"$log" 2>&1; then
  cat "$log" >&2
  echo "perfbench: build failed" >&2
  exit 2
fi

# The accounting tests run once per build of the test binary.
stamp=$build/selftest.passed
if [[ "${1:-}" == "--selftest" || ! -f "$stamp" ||
      "$build/perfbench_selftest" -nt "$stamp" ]]; then
  if ! "$build/perfbench_selftest" >"$build/selftest.log" 2>&1; then
    cat "$build/selftest.log" >&2
    echo "perfbench: accounting self-test failed" >&2
    exit 2
  fi
  touch "$stamp"
  if [[ "${1:-}" == "--selftest" ]]; then
    cat "$build/selftest.log"
    exit 0
  fi
fi

commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
digest=$(find src perfbench -type f \( -name '*.cc' -o -name '*.h' -o \
           -name 'CMakeLists.txt' \) | LC_ALL=C sort | xargs sha256sum |
         sha256sum | cut -c1-16)

exec "$build/falcc_perfbench" "$@" --work-dir .bench_build/w \
  --out-dir .bench_build/perfbench-out --git-commit "$commit" \
  --source-digest "$digest"
