#!/usr/bin/env bash
# Build dnnlife-bench from source (incrementally) and run one workload.
#
#   bash dnnlife_bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to stderr; the last line
# of stdout is the result object. Everything the run writes (build tree,
# per-run scratch directories, trace files) stays under .bench_build/.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build_dir=".bench_build/dnnlife_bench"

if [[ ! -f "${bench_dir}/../CMakeLists.txt" || ! -d "${bench_dir}/../src" ]]; then
  echo "dnnlife-bench: run from a repository checkout (library sources not found)" >&2
  exit 2
fi

jobs="$(nproc 2>/dev/null || echo 1)"
if (( jobs > 4 )); then jobs=4; fi

{
  if [[ ! -f "${build_dir}/CMakeCache.txt" ]]; then
    cmake -S "${bench_dir}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "${build_dir}" --target dnnlife_bench -j "${jobs}"
} >&2

mkdir -p "${build_dir}/runs" "${build_dir}/traces"
exec "${build_dir}/dnnlife_bench" "$@" \
  --scratch "${build_dir}/runs" --trace-dir "${build_dir}/traces"
