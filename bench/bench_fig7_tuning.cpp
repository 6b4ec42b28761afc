// Fig. 7: parameter-tuning benchmarks (single precision).  Three panels per
// architecture: number of buckets, number of threads per block, and loop
// unrolling depth, each as SampleSelect throughput over the input size.
// As in the paper, the K20Xm panels use global-memory atomics and the V100
// panels shared-memory atomics (the respective fastest configuration).

#include <iostream>
#include <string>
#include <vector>

#include "bench_util/runner.hpp"
#include "bench_util/table.hpp"
#include "core/sample_select.hpp"
#include "data/distributions.hpp"

namespace {

using namespace gpusel;

double run(const simt::ArchSpec& arch, const core::SampleSelectConfig& cfg, std::size_t n,
           std::uint64_t rep) {
    simt::Device dev(arch, {.record_profiles = false});
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_distinct, .seed = rep + 1});
    core::SampleSelectConfig c = cfg;
    c.seed = rep * 13 + 5;
    return core::try_sample_select<float>(dev, data, data::random_rank(n, rep), c).value().sim_ns;
}

void panel(const simt::ArchSpec& arch, simt::AtomicSpace space, const std::string& title,
           const std::vector<std::pair<std::string, core::SampleSelectConfig>>& configs,
           const bench::Scale& scale) {
    bench::Table t("Fig. 7: " + arch.name + " (" +
                   (space == simt::AtomicSpace::shared ? "shared" : "global") + " atomics) -- " +
                   title + " [elements/s]");
    std::vector<std::string> header{"n"};
    for (const auto& [name, cfg] : configs) header.push_back(name);
    t.set_header(std::move(header));
    for (const std::size_t n : scale.sizes()) {
        std::vector<std::string> row{std::to_string(n)};
        for (const auto& [name, cfg] : configs) {
            const auto s = bench::repeat_ns(
                scale.reps, [&](std::size_t rep) { return run(arch, cfg, n, rep); });
            row.push_back(bench::fmt_eng(bench::throughput(n, s.mean)));
        }
        t.add_row(std::move(row));
    }
    t.print(std::cout);
}

void arch_panels(const simt::ArchSpec& arch, simt::AtomicSpace space, const bench::Scale& scale) {
    core::SampleSelectConfig base;
    base.atomic_space = space;

    std::vector<std::pair<std::string, core::SampleSelectConfig>> buckets;
    for (int b : {64, 128, 256}) {
        auto c = base;
        c.num_buckets = b;
        buckets.emplace_back("b=" + std::to_string(b), c);
    }
    panel(arch, space, "number of buckets", buckets, scale);

    std::vector<std::pair<std::string, core::SampleSelectConfig>> threads;
    for (int bd : {256, 512, 1024}) {
        auto c = base;
        c.num_buckets = 256;
        c.block_dim = bd;
        threads.emplace_back("t=" + std::to_string(bd), c);
    }
    panel(arch, space, "threads per block", threads, scale);

    std::vector<std::pair<std::string, core::SampleSelectConfig>> unrolls;
    for (int u : {1, 2, 4, 8}) {
        auto c = base;
        c.num_buckets = 256;
        c.unroll = u;
        unrolls.emplace_back("u=" + std::to_string(u), c);
    }
    panel(arch, space, "loop unrolling depth", unrolls, scale);
}

}  // namespace

int main() {
    const auto scale = gpusel::bench::Scale::from_env();
    std::cout << "Fig. 7 reproduction: SampleSelect parameter tuning (single precision, "
              << scale.reps << " reps)\n\n";
    arch_panels(gpusel::simt::preset("K20Xm"), simt::AtomicSpace::global, scale);
    arch_panels(gpusel::simt::preset("V100"), simt::AtomicSpace::shared, scale);
    return 0;
}
