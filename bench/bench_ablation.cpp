// Ablation benchmarks for the design choices of Sec. IV (DESIGN.md §5):
//
//   A. sample size (Sec. IV-H b): splitter quality -> bucket imbalance ->
//      recursion depth and total time, plus the Mosteller-predicted
//      imbalance.
//   B. base-case size (Sec. IV-H f): the paper expects negligible impact.
//   C. dynamic parallelism (Sec. IV-E): device-side tail launches vs a
//      host-driven recursion paying full launch latency per kernel.
//   D. pivot sample size for QuickSelect: recursion depth vs pivot cost.

#include <iostream>

#include "baselines/quickselect.hpp"
#include "bench_util/runner.hpp"
#include "bench_util/table.hpp"
#include "core/approx_select.hpp"
#include "core/sample_select.hpp"
#include "data/distributions.hpp"
#include "simt/trace.hpp"

namespace {

using namespace gpusel;

void ablation_sample_size(std::size_t n, const bench::Scale& scale) {
    bench::Table t("A. sample size (V100, shared, b=256, n=" + std::to_string(n) + ")");
    t.set_header({"sample size", "levels (mean)", "max bucket / ideal", "time [ms]"});
    for (const int s : {256, 512, 1024, 2048, 4096}) {
        stats::Accumulator levels;
        stats::Accumulator imbalance;
        stats::Accumulator ns;
        for (std::size_t rep = 0; rep < scale.reps; ++rep) {
            simt::Device dev(simt::arch_v100(), {.record_profiles = false});
            const auto data = data::generate<float>(
                {.n = n, .dist = data::Distribution::uniform_real, .seed = rep + 1});
            core::SampleSelectConfig cfg;
            cfg.sample_size = s;
            cfg.seed = rep * 3 + 1;
            const auto r =
                core::try_sample_select<float>(dev, data, data::random_rank(n, rep), cfg).value();
            levels.add(static_cast<double>(r.levels));
            ns.add(r.sim_ns);
            // measure first-level imbalance with the approximate variant
            simt::Device dev2(simt::arch_v100(), {.record_profiles = false});
            const auto a = core::try_approx_select<float>(dev2, data, n / 2, cfg).value();
            imbalance.add(static_cast<double>(a.max_bucket) /
                          (static_cast<double>(n) / 256.0));
        }
        t.add_row({std::to_string(s), bench::fmt_fixed(levels.mean(), 2),
                   bench::fmt_fixed(imbalance.mean(), 2),
                   bench::fmt_fixed(ns.mean() / 1e6, 3)});
    }
    t.print(std::cout);
    std::cout << "(larger samples tighten the splitters: max-bucket/ideal approaches 1;\n"
              << " Sec. II-B predicts relative splitter-rank sd = sqrt(p(1-p)/s))\n\n";
}

void ablation_base_case(std::size_t n, const bench::Scale& scale) {
    bench::Table t("B. base-case size (V100, shared, b=256, n=" + std::to_string(n) + ")");
    t.set_header({"base case", "levels", "time [ms]"});
    for (const std::size_t bc : {std::size_t{256}, std::size_t{1024}, std::size_t{4096}}) {
        stats::Accumulator levels;
        stats::Accumulator ns;
        for (std::size_t rep = 0; rep < scale.reps; ++rep) {
            simt::Device dev(simt::arch_v100(), {.record_profiles = false});
            const auto data = data::generate<float>(
                {.n = n, .dist = data::Distribution::uniform_real, .seed = rep + 1});
            core::SampleSelectConfig cfg;
            cfg.base_case_size = bc;
            cfg.seed = rep * 3 + 1;
            const auto r =
                core::try_sample_select<float>(dev, data, data::random_rank(n, rep), cfg).value();
            levels.add(static_cast<double>(r.levels));
            ns.add(r.sim_ns);
        }
        t.add_row({std::to_string(bc), bench::fmt_fixed(levels.mean(), 2),
                   bench::fmt_fixed(ns.mean() / 1e6, 3)});
    }
    t.print(std::cout);
    std::cout << "(the paper expects negligible impact -- the input shrinks exponentially)\n\n";
}

void ablation_dynamic_parallelism(std::size_t n, const bench::Scale& scale) {
    // Device launches cost device_launch_ns; a host-driven recursion would
    // pay host_launch_ns for every kernel.  Reconstruct the host-driven
    // cost from the launch profile.
    bench::Table t("C. dynamic parallelism (V100, shared, b=16 to force deep recursion)");
    t.set_header({"n", "launches", "DP time [ms]", "host-driven [ms]", "saving"});
    for (const std::size_t size : {n / 16, n}) {
        stats::Accumulator dp_ns;
        stats::Accumulator host_ns;
        stats::Accumulator launches;
        for (std::size_t rep = 0; rep < scale.reps; ++rep) {
            simt::Device dev(simt::arch_v100());
            const auto data = data::generate<float>(
                {.n = size, .dist = data::Distribution::uniform_real, .seed = rep + 1});
            core::SampleSelectConfig cfg;
            cfg.num_buckets = 16;
            cfg.seed = rep * 3 + 1;
            const auto r = core::try_sample_select<float>(dev, data, data::random_rank(size, rep),
                                                          cfg)
                               .value();
            dp_ns.add(r.sim_ns);
            launches.add(static_cast<double>(r.launches));
            double host_total = 0;
            for (const auto& p : dev.profiles()) {
                host_total += p.sim_ns;
                if (p.origin == simt::LaunchOrigin::device) {
                    host_total += dev.arch().host_launch_ns - dev.arch().device_launch_ns;
                }
            }
            host_ns.add(host_total);
        }
        t.add_row({std::to_string(size), bench::fmt_fixed(launches.mean(), 1),
                   bench::fmt_fixed(dp_ns.mean() / 1e6, 3),
                   bench::fmt_fixed(host_ns.mean() / 1e6, 3),
                   bench::fmt_pct(1.0 - dp_ns.mean() / host_ns.mean(), 1)});
    }
    t.print(std::cout);
}

void ablation_pivot_sample(std::size_t n, const bench::Scale& scale) {
    bench::Table t("D. QuickSelect pivot sample size (V100, shared, n=" + std::to_string(n) +
                   ")");
    t.set_header({"pivot sample", "levels", "time [ms]"});
    for (const int ps : {1, 8, 32, 128, 1024}) {
        stats::Accumulator levels;
        stats::Accumulator ns;
        for (std::size_t rep = 0; rep < scale.reps; ++rep) {
            simt::Device dev(simt::arch_v100(), {.record_profiles = false});
            const auto data = data::generate<float>(
                {.n = n, .dist = data::Distribution::uniform_real, .seed = rep + 1});
            core::QuickSelectConfig cfg;
            cfg.pivot_sample_size = ps;
            cfg.seed = rep * 3 + 1;
            const auto r =
                baselines::quick_select<float>(dev, data, data::random_rank(n, rep), cfg);
            levels.add(static_cast<double>(r.levels));
            ns.add(r.sim_ns);
        }
        t.add_row({std::to_string(ps), bench::fmt_fixed(levels.mean(), 2),
                   bench::fmt_fixed(ns.mean() / 1e6, 3)});
    }
    t.print(std::cout);
    std::cout << "(tiny pivot samples give bad splits -> more levels; huge ones pay\n"
              << " bitonic sorting cost without improving the expected split further)\n";
}

}  // namespace

int main() {
    const auto scale = gpusel::bench::Scale::from_env();
    const std::size_t n = std::size_t{1} << scale.max_log_n;
    std::cout << "Ablations of Sec. IV design choices (" << scale.reps << " reps)\n\n";
    ablation_sample_size(n, scale);
    ablation_base_case(n, scale);
    ablation_dynamic_parallelism(n, scale);
    ablation_pivot_sample(n, scale);
    return 0;
}
