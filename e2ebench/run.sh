#!/usr/bin/env bash
# Entry point of the layered end-to-end benchmark (see e2ebench/README.md).
# Run from the repository root:
#
#   e2ebench/run.sh                       all workloads, one run each;
#                                         writes e2ebench/work/BENCH_e2e.json
#   e2ebench/run.sh --runs 10 --trace 1 --out e2ebench/results/BENCH_e2e.json
#                                         ten rounds plus a traced run each;
#                                         refreshes the checked-in baseline
#   e2ebench/run.sh --workload aids_filter --seed 7 --seconds 20 --trace 0
#                                         one run; last stdout line is JSON
#   e2ebench/run.sh --compare BASE.json NEW.json
#   e2ebench/run.sh --test                unit tests + the smoke run (ctest)
#
# Every invocation first builds the repository in Release into build-bench/
# and the harness into build-bench/e2ebench/ (incremental after the first
# time). Build output goes to stderr so stdout carries only results.
set -euo pipefail

cd "$(dirname "$0")/.."
if [[ ! -f CMakeLists.txt || ! -d src || ! -d tools ]]; then
  echo "e2ebench: run from a checkout of the repository (no sources here)" >&2
  exit 1
fi

build_dir=build-bench
jobs=$(nproc 2>/dev/null || echo 2)
(( jobs > 4 )) && jobs=4
generator=()
command -v ninja > /dev/null && generator=(-G Ninja)

build() {
  if [[ ! -f "${build_dir}/CMakeCache.txt" ]]; then
    cmake -S . -B "${build_dir}" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=Release >&2
  fi
  cmake --build "${build_dir}" -j "${jobs}" \
    --target sgq sgq_server sgq_router >&2
  if [[ ! -f "${build_dir}/e2ebench/CMakeCache.txt" ]]; then
    cmake -S e2ebench -B "${build_dir}/e2ebench" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=Release -DSGQ_BUILD_DIR="${build_dir}" >&2
  fi
  cmake --build "${build_dir}/e2ebench" -j "${jobs}" "$@" >&2
}

driver="${build_dir}/e2ebench/e2e_driver"
common=(--bin-dir "${build_dir}/tools" --work-dir e2ebench/work
        --benchmark-json BENCHMARK.json)

case "${1:-}" in
  --test)
    build
    cd "${build_dir}/e2ebench"
    exec ctest --output-on-failure -L bench
    ;;
  --compare)
    build --target e2e_driver
    exec "${driver}" --compare "${2:?BASE.json}" "${3:?NEW.json}" \
      "${common[@]}"
    ;;
  --workload)
    build --target e2e_driver
    exec "${driver}" "$@" "${common[@]}"
    ;;
  *)
    build --target e2e_driver
    sha=unknown
    if git rev-parse HEAD > /dev/null 2>&1; then
      sha=$(git rev-parse HEAD)
      # The results file is the suite's own output, not a source change.
      [[ -n "$(git status --porcelain -- src tools e2ebench \
               ':!e2ebench/results')" ]] && sha+="+dirty"
    fi
    exec "${driver}" --suite "$@" "${common[@]}" --git "${sha}"
    ;;
esac
