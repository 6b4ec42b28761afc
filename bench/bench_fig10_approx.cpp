// Fig. 10: error-throughput plot for approximate vs exact SampleSelect on
// the V100 (paper: n = 2^28 single precision; scaled by
// GPUSEL_BENCH_MAX_LOG_N).  Approximate selection for bucket counts 128,
// 256, 512, 1024 plus the exact baseline; each row reports the relative
// rank-error statistics and the throughput.

#include <iostream>

#include "bench_util/runner.hpp"
#include "bench_util/table.hpp"
#include "core/approx_select.hpp"
#include "core/sample_select.hpp"
#include "data/distributions.hpp"
#include "stats/summary.hpp"

namespace {

using namespace gpusel;

}  // namespace

int main() {
    const auto scale = gpusel::bench::Scale::from_env();
    const std::size_t n = std::size_t{1} << scale.max_log_n;  // paper: 2^28
    const std::size_t reps = std::max<std::size_t>(scale.reps, 5);
    std::cout << "Fig. 10 reproduction: error vs throughput, V100, n = " << n
              << " (single precision, uniform, " << reps << " repetitions)\n\n";

    bench::Table t("Fig. 10: approximate vs exact SampleSelect");
    t.set_header({"variant", "rel. rank error (mean)", "rel. error (max)",
                  "throughput [elem/s]", "speedup vs exact"});

    // exact baseline
    stats::Accumulator exact_ns;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        simt::Device dev(simt::arch_v100(), {.record_profiles = false});
        const auto data = data::generate<float>(
            {.n = n, .dist = data::Distribution::uniform_distinct, .seed = rep + 1});
        core::SampleSelectConfig cfg;
        cfg.num_buckets = 256;
        cfg.seed = rep * 5 + 1;
        exact_ns.add(core::try_sample_select<float>(dev, data, data::random_rank(n, rep), cfg)
                         .value()
                         .sim_ns);
    }
    t.add_row({"exact (b=256)", "0", "0", bench::fmt_eng(bench::throughput(n, exact_ns.mean())),
               "1.00x"});

    for (const int buckets : {128, 256, 512, 1024}) {
        stats::Accumulator err;
        stats::Accumulator ns;
        for (std::size_t rep = 0; rep < reps; ++rep) {
            simt::Device dev(simt::arch_v100(), {.record_profiles = false});
            const auto data = data::generate<float>(
                {.n = n, .dist = data::Distribution::uniform_distinct, .seed = rep + 1});
            core::SampleSelectConfig cfg;
            cfg.num_buckets = buckets;
            cfg.seed = rep * 5 + 1;
            const auto res =
                core::try_approx_select<float>(dev, data, data::random_rank(n, rep), cfg).value();
            err.add(static_cast<double>(res.rank_error) / static_cast<double>(n));
            ns.add(res.sim_ns);
        }
        t.add_row({"approx b=" + std::to_string(buckets), bench::fmt_pct(err.mean(), 4),
                   bench::fmt_pct(err.max(), 4), bench::fmt_eng(bench::throughput(n, ns.mean())),
                   bench::fmt_fixed(exact_ns.mean() / ns.mean(), 2) + "x"});
    }
    t.print(std::cout);
    std::cout << "(paper: ~3x speedup at b=128 with errors approaching 1%; ~50% runtime saving\n"
              << " at b=1024 with ~0.1% mean error)\n";
    return 0;
}
