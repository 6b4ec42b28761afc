// Benchmarks for the library's extensions beyond the paper's evaluation:
// the Sec. VI future-work features (multi-rank selection, batched
// multi-sequence selection, full sample sort) and the fused top-k of
// Sec. IV-I, each against the naive alternative a user would otherwise run.

#include <iostream>
#include <numeric>

#include "bench_util/runner.hpp"
#include "bench_util/table.hpp"
#include "core/argselect.hpp"
#include "core/batched_select.hpp"
#include "core/multiselect.hpp"
#include "core/sample_select.hpp"
#include "core/sample_sort.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "data/rng.hpp"

namespace {

using namespace gpusel;

void bench_multiselect(std::size_t n, const bench::Scale& scale) {
    bench::Table t("multi-rank selection vs repeated selection (V100, n=" + std::to_string(n) +
                   ")");
    t.set_header({"ranks", "multi [ms]", "repeated [ms]", "speedup"});
    for (const std::size_t m : {std::size_t{2}, std::size_t{4}, std::size_t{9},
                                std::size_t{32}}) {
        stats::Accumulator multi;
        stats::Accumulator repeated;
        for (std::size_t rep = 0; rep < scale.reps; ++rep) {
            const auto data = data::generate<float>(
                {.n = n, .dist = data::Distribution::uniform_real, .seed = rep + 1});
            std::vector<std::size_t> ranks;
            for (std::size_t i = 1; i <= m; ++i) ranks.push_back(i * n / (m + 1));
            simt::Device d1(simt::arch_v100(), {.record_profiles = false});
            multi.add(core::try_multi_select<float>(d1, data, ranks, {}).value().sim_ns);
            simt::Device d2(simt::arch_v100(), {.record_profiles = false});
            double total = 0;
            for (std::size_t r : ranks) {
                total += core::try_sample_select<float>(d2, data, r, {}).value().sim_ns;
            }
            repeated.add(total);
        }
        t.add_row({std::to_string(m), bench::fmt_fixed(multi.mean() / 1e6, 3),
                   bench::fmt_fixed(repeated.mean() / 1e6, 3),
                   bench::fmt_fixed(repeated.mean() / multi.mean(), 2) + "x"});
    }
    t.print(std::cout);
}

void bench_batched(const bench::Scale& scale) {
    bench::Table t("batched multi-sequence selection vs per-sequence launches (V100)");
    t.set_header({"sequences x len", "batched [ms]", "per-seq [ms]", "speedup"});
    for (const auto& [m, len] : {std::pair<std::size_t, std::size_t>{64, 2048},
                                 {512, 1024},
                                 {4096, 256}}) {
        stats::Accumulator batched;
        stats::Accumulator individual;
        for (std::size_t rep = 0; rep < scale.reps; ++rep) {
            data::Xoshiro256 rng(rep + 7);
            std::vector<float> flat(m * len);
            for (auto& x : flat) x = static_cast<float>(rng.uniform());
            std::vector<std::size_t> offsets(m + 1);
            for (std::size_t i = 0; i <= m; ++i) offsets[i] = i * len;
            std::vector<std::size_t> ranks(m);
            for (auto& r : ranks) r = rng.bounded(len);

            simt::Device d1(simt::arch_v100(), {.record_profiles = false});
            batched.add(
                core::try_batched_select<float>(d1, flat, offsets, ranks, {}).value().sim_ns);

            simt::Device d2(simt::arch_v100(), {.record_profiles = false});
            double total = 0;
            for (std::size_t i = 0; i < m; ++i) {
                const std::vector<float> seq(flat.begin() + static_cast<std::ptrdiff_t>(offsets[i]),
                                             flat.begin() +
                                                 static_cast<std::ptrdiff_t>(offsets[i + 1]));
                const std::vector<std::size_t> off{0, len};
                const std::vector<std::size_t> rk{ranks[i]};
                total += core::try_batched_select<float>(d2, seq, off, rk, {}).value().sim_ns;
            }
            individual.add(total);
        }
        t.add_row({std::to_string(m) + " x " + std::to_string(len),
                   bench::fmt_fixed(batched.mean() / 1e6, 3),
                   bench::fmt_fixed(individual.mean() / 1e6, 3),
                   bench::fmt_fixed(individual.mean() / batched.mean(), 1) + "x"});
    }
    t.print(std::cout);
}

void bench_topk(std::size_t n, const bench::Scale& scale) {
    bench::Table t("fused top-k vs full sort (V100, n=" + std::to_string(n) + ")");
    t.set_header({"k", "topk [ms]", "topk+indices [ms]", "sample_sort [ms]"});
    stats::Accumulator sort_ns;
    for (std::size_t rep = 0; rep < scale.reps; ++rep) {
        const auto data = data::generate<float>(
            {.n = n, .dist = data::Distribution::uniform_real, .seed = rep + 1});
        simt::Device d(simt::arch_v100(), {.record_profiles = false});
        sort_ns.add(core::try_sample_sort<float>(d, data, {}).value().sim_ns);
    }
    for (const std::size_t k : {std::size_t{10}, std::size_t{1000}, n / 100}) {
        stats::Accumulator plain;
        stats::Accumulator indexed;
        for (std::size_t rep = 0; rep < scale.reps; ++rep) {
            const auto data = data::generate<float>(
                {.n = n, .dist = data::Distribution::uniform_real, .seed = rep + 1});
            simt::Device d1(simt::arch_v100(), {.record_profiles = false});
            plain.add(core::try_topk_largest<float>(d1, data, k, {}).value().sim_ns);
            simt::Device d2(simt::arch_v100(), {.record_profiles = false});
            indexed.add(core::try_topk_largest_indices(d2, data, k, {}).value().sim_ns);
        }
        t.add_row({std::to_string(k), bench::fmt_fixed(plain.mean() / 1e6, 3),
                   bench::fmt_fixed(indexed.mean() / 1e6, 3),
                   bench::fmt_fixed(sort_ns.mean() / 1e6, 3)});
    }
    t.print(std::cout);
}

void bench_sort(const bench::Scale& scale) {
    bench::Table t("sample sort throughput (V100, single precision)");
    t.set_header({"n", "time [ms]", "throughput [elem/s]", "depth"});
    for (const std::size_t n : scale.sizes()) {
        stats::Accumulator ns;
        stats::Accumulator depth;
        for (std::size_t rep = 0; rep < scale.reps; ++rep) {
            const auto data = data::generate<float>(
                {.n = n, .dist = data::Distribution::uniform_real, .seed = rep + 1});
            simt::Device d(simt::arch_v100(), {.record_profiles = false});
            const auto r = core::try_sample_sort<float>(d, data, {}).value();
            ns.add(r.sim_ns);
            depth.add(static_cast<double>(r.max_depth));
        }
        t.add_row({std::to_string(n), bench::fmt_fixed(ns.mean() / 1e6, 3),
                   bench::fmt_eng(bench::throughput(n, ns.mean())),
                   bench::fmt_fixed(depth.mean(), 1)});
    }
    t.print(std::cout);
}

}  // namespace

int main() {
    const auto scale = gpusel::bench::Scale::from_env();
    const std::size_t n = std::size_t{1} << std::min<std::size_t>(scale.max_log_n, 20);
    std::cout << "Extension benchmarks (" << scale.reps << " reps)\n\n";
    bench_multiselect(n, scale);
    bench_batched(scale);
    bench_topk(n, scale);
    bench_sort(scale);
    return 0;
}
