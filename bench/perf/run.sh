#!/usr/bin/env bash
# perfbench, the one command (see bench/perf/README.md). Every mode first
# builds bench/perf into .bench_build/perf (RelWithDebInfo, the repository's
# default build type); build output goes to stderr.
#
#   bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One workload in one process. The last line of stdout is the result
#       JSON; a traced run also writes .bench_build/spans/NAME-N.jsonl.
#   bench/perf/run.sh [--runs R] [--seconds S] [--out FILE]
#       R runs of every workload (seeds 1..R, one process each, the order
#       reversed on every other round) plus one traced pass per workload.
#       Prints each metric's median and quartiles and writes FILE (default
#       .bench_build/results.json), stamped with nproc, git sha and build type.
#   bench/perf/run.sh --compare BASE.json NEW.json
#       Applies BENCHMARK.json's bounds to two results files; exits 1 on a
#       regression.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out_dir="$root/.bench_build"
build="$out_dir/perf"
build_type=RelWithDebInfo

if [[ "${1:-}" == "--compare" ]]; then
  [[ $# -eq 3 ]] || { echo "usage: $0 --compare BASE.json NEW.json" >&2; exit 2; }
  exec python3 "$here/report.py" compare "$root/BENCHMARK.json" "$2" "$3"
fi

if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "perfbench: $root/src is missing; run from a full checkout of the repository" >&2
  exit 2
fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE="$build_type" >&2
fi
cmake --build "$build" -j"$(nproc)" --target gfair_perfbench >&2
bin="$build/gfair_perfbench"

if [[ " $* " == *" --workload "* ]]; then
  args=("$@")
  workload="" seed=1 trace=0
  for ((i = 0; i + 1 < ${#args[@]}; i++)); do
    case "${args[i]}" in
      --workload) workload="${args[i + 1]}" ;;
      --seed) seed="${args[i + 1]}" ;;
      --trace) trace="${args[i + 1]}" ;;
    esac
  done
  if [[ "$trace" == 1 ]]; then
    mkdir -p "$out_dir/spans"
    exec "$bin" "$@" --spans "$out_dir/spans/$workload-$seed.jsonl"
  fi
  exec "$bin" "$@"
fi

runs=5 seconds=30 out="$out_dir/results.json"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --runs) runs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "perfbench: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

raw="$out_dir/runs"
rm -rf "$raw"
mkdir -p "$raw" "$out_dir/spans"
mapfile -t workloads < <("$bin" --list)
for ((r = 1; r <= runs; r++)); do
  order=("${workloads[@]}")
  if ((r % 2 == 0)); then
    order=()
    for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do order+=("${workloads[i]}"); done
  fi
  for w in "${order[@]}"; do
    echo "perfbench: $w seed $r" >&2
    "$bin" --workload "$w" --seed "$r" --seconds "$seconds" --trace 0 > "$raw/$w.$r.out"
  done
done
for w in "${workloads[@]}"; do
  echo "perfbench: $w traced" >&2
  "$bin" --workload "$w" --seed 1 --seconds "$seconds" --trace 1 \
    --spans "$out_dir/spans/$w-1.jsonl" > "$raw/$w.traced.out"
done
sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
exec python3 "$here/report.py" summarize --out "$out" --sha "$sha" \
  --build-type "$build_type" --seconds "$seconds" "$raw"/*.out
