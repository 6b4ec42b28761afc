#!/usr/bin/env bash
# Runs the simulator-overhead benchmark suite and records the results as
# JSON under results/.  Usage:
#
#   bench/run_benches.sh [build-dir] [out-json]
#
# Defaults: build-dir = ./build, out-json = results/BENCH_simulator.json.
# Environment knobs understood by the binaries themselves:
#   GPUSEL_SIMD=off|avx2         cap the lane-vector tier (default: fastest)
#   GPUSEL_WORKERS=N             host worker threads (default: cores - 1)
#
# The committed results/BENCH_simulator_seed.json holds the pre-SIMD seed
# baseline measured on the same host; compare items_per_second against it.
set -euo pipefail

if [[ $# -gt 2 ]]; then
    echo "usage: $0 [build-dir] [out-json]" >&2
    exit 2
fi
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
out_json="${2:-${repo_root}/results/BENCH_simulator.json}"
bench_bin="${build_dir}/bench/bench_simulator_overhead"

if [[ ! -x "${bench_bin}" ]]; then
    echo "error: ${bench_bin} not found -- build first:" >&2
    echo "  cmake -B '${build_dir}' -S '${repo_root}' && cmake --build '${build_dir}' -j" >&2
    exit 1
fi

mkdir -p "$(dirname "${out_json}")"
echo "running ${bench_bin} -> ${out_json}"
"${bench_bin}" \
    --benchmark_out="${out_json}" \
    --benchmark_out_format=json \
    --benchmark_min_time=1 >/dev/null

# One-line summary per benchmark: items/sec plus, where the benchmark
# records them, the memory-pool counters (backing allocations and pool
# reuses per iteration, tracker peak_above_baseline in bytes) and the
# robustness counters (fault retries / resamples / fallbacks per iteration
# and the fraction of fault-injected runs that recovered, see
# docs/robustness.md).  All counters also land verbatim in the JSON for
# regression tooling.
python3 - "${out_json}" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
for b in doc.get("benchmarks", []):
    ips = b.get("items_per_second")
    if ips is None:
        continue
    line = f'{b["name"]:40s} {ips / 1e6:10.1f} M items/s'
    if "allocs_per_iter" in b:
        line += (f'  allocs/iter={b["allocs_per_iter"]:6.1f}'
                 f'  reuses/iter={b.get("reuses_per_iter", 0.0):6.1f}'
                 f'  peak_aux={int(b.get("peak_aux_bytes", 0))}B')
    if "recovered_frac" in b:
        line += (f'  retries/iter={b.get("alloc_retries_per_iter", 0.0) + b.get("launch_retries_per_iter", 0.0):6.2f}'
                 f'  resamples/iter={b.get("resamples_per_iter", 0.0):5.2f}'
                 f'  fallbacks/iter={b.get("fallbacks_per_iter", 0.0):5.2f}'
                 f'  recovered={b["recovered_frac"]:5.1%}')
    print(line)
PY
echo "wrote ${out_json}"
