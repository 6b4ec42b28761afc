// Fig. 9: runtime breakdown of the elementary kernels (shared-memory
// atomics, V100, n = 2^24 in the paper; scaled by GPUSEL_BENCH_MAX_LOG_N).
// Three stacked configurations as in the paper:
//   * "count w/o write":  sample + count (no oracles) + reduce
//   * "count w/ write":   sample + count (oracles) + reduce_offsets + filter
//   * "bipartition":      the QuickSelect Fig. 5 kernel
// reported as runtime per element [ns] for each elementary kernel.

#include <iostream>
#include <map>

#include "baselines/quickselect.hpp"
#include "bench_util/runner.hpp"
#include "bench_util/table.hpp"
#include "core/count_kernel.hpp"
#include "core/filter_kernel.hpp"
#include "core/reduce_kernel.hpp"
#include "core/sample_kernel.hpp"
#include "data/distributions.hpp"

namespace {

using namespace gpusel;

std::map<std::string, double> kernel_times(bool write_oracles, std::size_t n, std::uint64_t rep) {
    simt::Device dev(simt::arch_v100());
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_distinct, .seed = rep + 1});
    core::SampleSelectConfig cfg;
    cfg.num_buckets = 256;
    cfg.atomic_space = simt::AtomicSpace::shared;
    cfg.seed = rep * 3 + 1;

    const auto tree = core::sample_splitters<float>(dev, data, cfg, simt::LaunchOrigin::host);
    auto oracles = dev.alloc<std::uint8_t>(write_oracles ? n : 0);
    auto totals = dev.alloc<std::int32_t>(256);
    const int grid = simt::suggest_grid(dev.arch(), n, cfg.block_dim, cfg.unroll);
    auto block_counts = dev.alloc<std::int32_t>(static_cast<std::size_t>(grid) * 256);
    core::count_kernel<float>(dev, data, tree, oracles.span(), totals.span(), block_counts.span(),
                              cfg, simt::LaunchOrigin::host);
    core::reduce_kernel(dev, block_counts.span(), grid, 256, totals.span(), write_oracles,
                        simt::LaunchOrigin::host);
    if (write_oracles) {
        auto prefix = dev.alloc<std::int32_t>(257);
        const auto bucket = core::select_bucket_kernel(dev, totals.span(), prefix.span(), n / 2,
                                                       simt::LaunchOrigin::host);
        auto out =
            dev.alloc<float>(static_cast<std::size_t>(totals[static_cast<std::size_t>(bucket)]));
        core::filter_kernel<float>(dev, data, oracles.span(), bucket, out.span(),
                                   block_counts.span(), 256, {}, cfg, simt::LaunchOrigin::host,
                                   grid);
    }

    std::map<std::string, double> by;
    for (const auto& p : dev.profiles()) by[p.name] += p.sim_ns;
    return by;
}

double bipartition_time(std::size_t n, std::uint64_t rep) {
    simt::Device dev(simt::arch_v100());
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_distinct, .seed = rep + 1});
    auto out = dev.alloc<float>(n);
    auto counters = dev.alloc<std::int32_t>(2);
    counters[0] = counters[1] = 0;
    core::QuickSelectConfig qcfg;
    qcfg.atomic_space = simt::AtomicSpace::shared;
    const double t0 = dev.elapsed_ns();
    baselines::bipartition_kernel<float>(dev, data, data[n / 2], out.span(), counters.span(),
                                         qcfg, simt::LaunchOrigin::host);
    return dev.elapsed_ns() - t0;
}

}  // namespace

int main() {
    const auto scale = gpusel::bench::Scale::from_env();
    const std::size_t n = std::size_t{1} << scale.max_log_n;  // paper: 2^24
    std::cout << "Fig. 9 reproduction: runtime breakdown per elementary kernel\n"
              << "(V100, shared-memory atomics, n = " << n << ", single precision, "
              << scale.reps << " reps; values are ns per element)\n\n";

    const char* kernels[] = {"sample", "count", "count_nowrite", "reduce", "reduce_offsets",
                             "filter"};
    bench::Table t("Fig. 9: runtime per element [ns]");
    t.set_header({"configuration", "sample", "count", "reduce", "filter", "total"});

    auto add_config = [&](const char* name, bool write) {
        std::map<std::string, gpusel::stats::Accumulator> acc;
        for (std::size_t rep = 0; rep < scale.reps; ++rep) {
            for (const auto& [k, v] : kernel_times(write, n, rep)) acc[k].add(v);
        }
        auto per_elem = [&](const char* k) {
            return acc.count(k) != 0U ? acc[k].mean() / static_cast<double>(n) : 0.0;
        };
        const double sample = per_elem("sample");
        const double count = per_elem(write ? "count" : "count_nowrite");
        const double reduce = per_elem(write ? "reduce_offsets" : "reduce");
        const double filter = per_elem("filter");
        t.add_row({name, bench::fmt_fixed(sample, 4), bench::fmt_fixed(count, 4),
                   bench::fmt_fixed(reduce, 4), bench::fmt_fixed(filter, 4),
                   bench::fmt_fixed(sample + count + reduce + filter, 4)});
        (void)kernels;
    };
    add_config("count w/o write", false);
    add_config("count w/ write", true);

    gpusel::stats::Accumulator bip;
    for (std::size_t rep = 0; rep < scale.reps; ++rep) bip.add(bipartition_time(n, rep));
    t.add_row({"bipartition", "-", bench::fmt_fixed(bip.mean() / static_cast<double>(n), 4), "-",
               "-", bench::fmt_fixed(bip.mean() / static_cast<double>(n), 4)});
    t.print(std::cout);
    return 0;
}
