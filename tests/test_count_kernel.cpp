// Unit tests for the count kernel (core/count_kernel.hpp): histogram and
// oracle correctness across the atomic flavours, plus event-count
// invariants.

#include "core/count_kernel.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "core/reduce_kernel.hpp"
#include "core/sample_kernel.hpp"
#include "data/distributions.hpp"

namespace {

using namespace gpusel;
using core::SampleSelectConfig;
using core::SearchTree;

struct CountSetup {
    simt::Device dev{simt::arch_v100()};
    std::vector<float> data;
    SearchTree<float> tree;
    SampleSelectConfig cfg;

    explicit CountSetup(SampleSelectConfig c, std::size_t n = 1 << 14,
                        data::Distribution dist = data::Distribution::uniform_real,
                        std::size_t distinct = 0)
        : cfg(c) {
        data = data::generate<float>({.n = n, .dist = dist, .distinct_values = distinct,
                                      .seed = 77});
        tree = core::sample_splitters<float>(dev, data, cfg, simt::LaunchOrigin::host);
    }

    /// Runs count (+reduce in shared mode) and returns (totals, oracles).
    std::pair<std::vector<std::int32_t>, std::vector<std::uint8_t>> run(bool with_oracles = true) {
        const auto b = static_cast<std::size_t>(cfg.num_buckets);
        auto totals = dev.alloc<std::int32_t>(b);
        auto oracles = dev.alloc<std::uint8_t>(with_oracles ? data.size() : 0);
        const int grid = simt::suggest_grid(dev.arch(), data.size(), cfg.block_dim, cfg.unroll);
        simt::DeviceBuffer<std::int32_t> block_counts;
        if (cfg.atomic_space == simt::AtomicSpace::shared) {
            block_counts = dev.alloc<std::int32_t>(static_cast<std::size_t>(grid) * b);
        } else {
            core::launch_memset32(dev, totals.span(), simt::LaunchOrigin::host);
        }
        core::count_kernel<float>(dev, data, tree, oracles.span(), totals.span(),
                                  block_counts.span(), cfg, simt::LaunchOrigin::host);
        if (cfg.atomic_space == simt::AtomicSpace::shared) {
            core::reduce_kernel(dev, block_counts.span(), grid, cfg.num_buckets, totals.span(),
                                false, simt::LaunchOrigin::host);
        }
        return {std::vector<std::int32_t>(totals.data(), totals.data() + b),
                std::vector<std::uint8_t>(oracles.data(), oracles.data() + oracles.size())};
    }

    std::vector<std::int32_t> host_histogram() const {
        std::vector<std::int32_t> h(static_cast<std::size_t>(cfg.num_buckets), 0);
        for (float x : data) ++h[static_cast<std::size_t>(tree.find_bucket(x))];
        return h;
    }
};

/// All four atomic flavours of Sec. IV-G / Fig. 6.
class CountKernelModes
    : public ::testing::TestWithParam<std::tuple<simt::AtomicSpace, bool>> {};

TEST_P(CountKernelModes, HistogramMatchesHostReference) {
    const auto [space, agg] = GetParam();
    SampleSelectConfig cfg;
    cfg.num_buckets = 64;
    cfg.atomic_space = space;
    cfg.warp_aggregation = agg;
    CountSetup s(cfg);
    const auto [totals, oracles] = s.run();
    EXPECT_EQ(totals, s.host_histogram());
    // histogram sums to n
    EXPECT_EQ(std::accumulate(totals.begin(), totals.end(), 0), static_cast<int>(s.data.size()));
}

TEST_P(CountKernelModes, OraclesMatchTreeTraversal) {
    const auto [space, agg] = GetParam();
    SampleSelectConfig cfg;
    cfg.num_buckets = 128;
    cfg.atomic_space = space;
    cfg.warp_aggregation = agg;
    CountSetup s(cfg);
    const auto [totals, oracles] = s.run();
    ASSERT_EQ(oracles.size(), s.data.size());
    for (std::size_t i = 0; i < s.data.size(); ++i) {
        ASSERT_EQ(static_cast<std::int32_t>(oracles[i]), s.tree.find_bucket(s.data[i]))
            << "element " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, CountKernelModes,
    ::testing::Combine(::testing::Values(simt::AtomicSpace::shared, simt::AtomicSpace::global),
                       ::testing::Bool()),
    [](const auto& info) {
        return std::string(std::get<0>(info.param) == simt::AtomicSpace::shared ? "shared"
                                                                                : "global") +
               (std::get<1>(info.param) ? "_warpagg" : "_plain");
    });

TEST(CountKernel, EventInvariantsPlainShared) {
    SampleSelectConfig cfg;
    cfg.num_buckets = 256;
    cfg.atomic_space = simt::AtomicSpace::shared;
    cfg.warp_aggregation = false;
    CountSetup s(cfg);
    s.dev.clear_profiles();
    (void)s.run();
    const simt::KernelProfile* count = nullptr;
    for (const auto& p : s.dev.profiles()) {
        if (p.name == "count") count = &p;
    }
    ASSERT_NE(count, nullptr);
    const auto n = s.data.size();
    // exactly one shared atomic per element, zero global atomics
    EXPECT_EQ(count->counters.shared_atomic_ops, n);
    EXPECT_EQ(count->counters.global_atomic_ops, 0u);
    // element reads + tree staging reads
    EXPECT_GE(count->counters.global_bytes_read, n * sizeof(float));
    // one oracle byte per element plus per-block partial counts
    EXPECT_GE(count->counters.global_bytes_written, n);
    EXPECT_EQ(count->counters.warp_ballots, 0u);
}

TEST(CountKernel, EventInvariantsAggregatedGlobal) {
    SampleSelectConfig cfg;
    cfg.num_buckets = 256;
    cfg.atomic_space = simt::AtomicSpace::global;
    cfg.warp_aggregation = true;
    CountSetup s(cfg);
    s.dev.clear_profiles();
    (void)s.run();
    const simt::KernelProfile* count = nullptr;
    for (const auto& p : s.dev.profiles()) {
        if (p.name == "count") count = &p;
    }
    ASSERT_NE(count, nullptr);
    const auto n = s.data.size();
    // warp aggregation: no collisions, fewer atomics than elements,
    // tree_height ballots per warp tile
    EXPECT_EQ(count->counters.global_atomic_collisions, 0u);
    EXPECT_LE(count->counters.global_atomic_ops, n);
    EXPECT_GT(count->counters.global_atomic_ops, 0u);
    const auto warps = (n + simt::kWarpSize - 1) / simt::kWarpSize;
    EXPECT_EQ(count->counters.warp_ballots, warps * 8u);  // log2(256) ballots per tile
}

TEST(CountKernel, DuplicateHeavyDataCausesCollisions) {
    SampleSelectConfig cfg;
    cfg.num_buckets = 64;
    cfg.atomic_space = simt::AtomicSpace::shared;
    CountSetup few(cfg, 1 << 14, data::Distribution::uniform_distinct, 1);
    few.dev.clear_profiles();
    (void)few.run();
    std::uint64_t coll_few = 0;
    for (const auto& p : few.dev.profiles()) coll_few += p.counters.shared_atomic_collisions;
    // d=1: every warp hits a single bucket -> 31 collisions per 32 ops
    EXPECT_GT(coll_few, (few.data.size() * 9) / 10);

    CountSetup many(cfg, 1 << 14, data::Distribution::uniform_real);
    many.dev.clear_profiles();
    (void)many.run();
    std::uint64_t coll_many = 0;
    for (const auto& p : many.dev.profiles()) coll_many += p.counters.shared_atomic_collisions;
    EXPECT_LT(coll_many, coll_few / 2);
}

TEST(CountKernel, NoWriteModeSkipsOracleTraffic) {
    SampleSelectConfig cfg;
    cfg.num_buckets = 64;
    cfg.atomic_space = simt::AtomicSpace::global;
    CountSetup s(cfg);
    s.dev.clear_profiles();
    (void)s.run(/*with_oracles=*/false);
    const simt::KernelProfile* count = nullptr;
    for (const auto& p : s.dev.profiles()) {
        if (p.name == "count_nowrite") count = &p;
    }
    ASSERT_NE(count, nullptr);
    EXPECT_EQ(count->counters.global_bytes_written, 0u);
}

TEST(CountKernel, UnrollAffectsTimingNotResults) {
    SampleSelectConfig a;
    a.num_buckets = 64;
    a.unroll = 1;
    SampleSelectConfig b = a;
    b.unroll = 8;
    CountSetup sa(a);
    CountSetup sb(b);
    EXPECT_EQ(sa.run().first, sb.run().first);
}

TEST(CountKernel, ThrowsOnOracleSizeMismatch) {
    SampleSelectConfig cfg;
    cfg.num_buckets = 64;
    CountSetup s(cfg);
    auto totals = s.dev.alloc<std::int32_t>(64);
    auto oracles = s.dev.alloc<std::uint8_t>(10);  // wrong size
    auto block_counts = s.dev.alloc<std::int32_t>(1 << 20);
    EXPECT_THROW(core::count_kernel<float>(s.dev, s.data, s.tree, oracles.span(), totals.span(),
                                           block_counts.span(), s.cfg, simt::LaunchOrigin::host),
                 std::invalid_argument);
}

}  // namespace
