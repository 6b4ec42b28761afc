#!/usr/bin/env bash
# Builds gpusel_bench from the sources of this checkout and runs it.
#
#   bench/suite/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       One run; the last line of stdout is the result JSON.
#   bench/suite/run.sh [--seed N] [--seconds S] [--traced] [--out-dir DIR]
#       Every workload, each in its own process.  --traced gives the
#       per-layer metrics instead of the end-to-end ones; --out-dir keeps
#       each run's output as DIR/<workload>.s<seed>.t<trace>.<n>.json for
#       agree.py.
#   bench/suite/run.sh --quick | --self-test
#       The smoke test and the oracle self-test.
#
# The build goes to $CARGO_TARGET_DIR when set (relative paths are taken
# from the checkout root), otherwise to .bench_build; build output goes to
# stderr.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "${here}/../.." && pwd)"
if [[ ! -f "${root}/CMakeLists.txt" || ! -d "${root}/src" ]]; then
    echo "run.sh: library sources not found under ${root}" >&2
    exit 1
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "${build}" == /* ]] || build="${root}/${build}"
# Keep the compiler's temporary files inside the build directory too.
export TMPDIR="${build}/tmp"
mkdir -p "${TMPDIR}"
if [[ ! -f "${build}/CMakeCache.txt" ]]; then
    cmake -S "${here}" -B "${build}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "${build}" --target gpusel_bench -j "$(nproc)" >&2
bin="${build}/gpusel_bench"
commit="$(git -C "${root}" rev-parse --short HEAD 2>/dev/null || echo unknown)"

workload=""
seed=1
seconds=15
trace=0
out_dir=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --quick|--self-test|--list-metrics|--list-workloads) exec "${bin}" "$1" ;;
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --traced) trace=1; shift ;;
        --out-dir) out_dir="$2"; shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 3 ;;
    esac
done

args=(--seed "${seed}" --seconds "${seconds}" --trace "${trace}" --commit "${commit}")
if [[ -n "${workload}" && -z "${out_dir}" ]]; then
    exec "${bin}" --workload "${workload}" "${args[@]}"
fi

workloads=("${workload}")
if [[ -z "${workload}" ]]; then
    mapfile -t workloads < <("${bin}" --list-workloads)
fi
[[ -z "${out_dir}" ]] || mkdir -p "${out_dir}"
status=0
for w in "${workloads[@]}"; do
    echo "== ${w} (seed ${seed}, trace ${trace})"
    output="$("${bin}" --workload "${w}" "${args[@]}")" || status=1
    printf '%s\n' "${output}"
    if [[ -n "${out_dir}" ]]; then
        n=0
        while [[ -e "${out_dir}/${w}.s${seed}.t${trace}.${n}.json" ]]; do n=$((n + 1)); done
        printf '%s\n' "${output}" > "${out_dir}/${w}.s${seed}.t${trace}.${n}.json"
    fi
done
exit "${status}"
