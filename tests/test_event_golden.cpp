// Golden event-count regression tests: for small handcrafted scenarios the
// exact counter values are computed by hand and pinned.  These protect the
// instrumentation contract that every paper figure rests on -- if a kernel
// starts charging different byte/atomic/ballot counts, these fail first.

#include <gtest/gtest.h>

#include <numeric>

#include "core/count_kernel.hpp"
#include "core/filter_kernel.hpp"
#include "core/reduce_kernel.hpp"
#include "core/searchtree.hpp"
#include "golden_hash.hpp"
#include "simt/device.hpp"

namespace {

using namespace gpusel;

// Scenario: n = 1024 floats (values 0..1023), b = 4 buckets with splitters
// {256, 512, 768}, block_dim = 256.  grid = ceil(1024/256) = 4 blocks,
// 8 warps per block, 32 warp tiles total.
struct Golden {
    simt::Device dev{simt::arch_v100(), golden::device_options()};
    static constexpr std::size_t kN = 1024;
    static constexpr std::size_t kB = 4;
    std::vector<float> data;
    core::SearchTree<float> tree;
    core::SampleSelectConfig cfg;

    Golden() {
        data.resize(kN);
        std::iota(data.begin(), data.end(), 0.0f);
        tree = core::SearchTree<float>::build({256.0f, 512.0f, 768.0f});
        cfg.num_buckets = kB;
        cfg.block_dim = 256;
    }
};

TEST(EventGolden, CountKernelSharedPlain) {
    Golden g;
    g.cfg.atomic_space = simt::AtomicSpace::shared;
    g.cfg.warp_aggregation = false;
    auto totals = g.dev.alloc<std::int32_t>(Golden::kB);
    auto oracles = g.dev.alloc<std::uint8_t>(Golden::kN);
    auto bc = g.dev.alloc<std::int32_t>(4 * Golden::kB);
    g.dev.clear_profiles();
    core::count_kernel<float>(g.dev, g.data, g.tree, oracles.span(), totals.span(), bc.span(),
                              g.cfg, simt::LaunchOrigin::host);
    const auto& c = g.dev.profiles().back().counters;

    // element loads: 1024 * 4 B; tree staging: 4 blocks * (3*4 + 3) B
    EXPECT_EQ(c.global_bytes_read, 1024u * 4 + 4 * 15);
    // oracle bytes + per-block partial counts (4 blocks * 4 buckets * 4 B)
    EXPECT_EQ(c.global_bytes_written, 1024u + 4 * 4 * 4);
    // one shared atomic per element
    EXPECT_EQ(c.shared_atomic_ops, 1024u);
    // each 32-lane warp covers 32 consecutive integers: within one tile all
    // values land in the same bucket (buckets are 256 wide and aligned), so
    // 31 collisions per warp, 32 warps
    EXPECT_EQ(c.shared_atomic_collisions, 32u * 31);
    EXPECT_EQ(c.warp_ballots, 0u);
    EXPECT_EQ(c.global_atomic_ops, 0u);
    // traversal: height=2 instructions per element
    EXPECT_EQ(c.instructions, 1024u * 2);
}

TEST(EventGolden, CountKernelGlobalAggregated) {
    Golden g;
    g.cfg.atomic_space = simt::AtomicSpace::global;
    g.cfg.warp_aggregation = true;
    auto totals = g.dev.alloc<std::int32_t>(Golden::kB);
    core::launch_memset32(g.dev, totals.span(), simt::LaunchOrigin::host);
    auto oracles = g.dev.alloc<std::uint8_t>(Golden::kN);
    g.dev.clear_profiles();
    core::count_kernel<float>(g.dev, g.data, g.tree, oracles.span(), totals.span(), {}, g.cfg,
                              simt::LaunchOrigin::host);
    const auto& c = g.dev.profiles().back().counters;

    // aggregated: one atomic per distinct bucket per warp = 1 per warp here
    EXPECT_EQ(c.global_atomic_ops, 32u);
    EXPECT_EQ(c.global_atomic_collisions, 0u);
    // height(=2) ballots per warp tile
    EXPECT_EQ(c.warp_ballots, 32u * 2);
    EXPECT_EQ(c.shared_atomic_ops, 0u);
    // histogram is correct
    for (std::size_t i = 0; i < Golden::kB; ++i) EXPECT_EQ(totals[i], 256);
}

TEST(EventGolden, ReduceKernelTraffic) {
    Golden g;
    const int grid = 4;
    auto bc = g.dev.alloc<std::int32_t>(static_cast<std::size_t>(grid) * Golden::kB);
    for (std::size_t i = 0; i < bc.size(); ++i) bc[i] = 1;
    auto totals = g.dev.alloc<std::int32_t>(Golden::kB);
    g.dev.clear_profiles();
    core::reduce_kernel(g.dev, bc.span(), grid, Golden::kB, totals.span(), true,
                        simt::LaunchOrigin::host);
    const auto& c = g.dev.profiles().back().counters;
    // 4 columns x 4 rows read and rewritten + 4 totals written
    EXPECT_EQ(c.global_bytes_read, 4u * 4 * 4);
    EXPECT_EQ(c.global_bytes_written, 4u * 4 * 4 + 4 * 4);
    EXPECT_EQ(c.instructions, 16u);
}

TEST(EventGolden, FilterKernelTraffic) {
    Golden g;
    g.cfg.atomic_space = simt::AtomicSpace::shared;
    auto totals = g.dev.alloc<std::int32_t>(Golden::kB);
    auto oracles = g.dev.alloc<std::uint8_t>(Golden::kN);
    auto bc = g.dev.alloc<std::int32_t>(4 * Golden::kB);
    core::count_kernel<float>(g.dev, g.data, g.tree, oracles.span(), totals.span(), bc.span(),
                              g.cfg, simt::LaunchOrigin::host);
    core::reduce_kernel(g.dev, bc.span(), 4, Golden::kB, totals.span(), true,
                        simt::LaunchOrigin::host);
    auto out = g.dev.alloc<float>(256);
    g.dev.clear_profiles();
    core::filter_kernel<float>(g.dev, g.data, oracles.span(), /*bucket=*/2, out.span(),
                               bc.span(), Golden::kB, {}, g.cfg, simt::LaunchOrigin::host, 4);
    const auto& c = g.dev.profiles().back().counters;
    // oracle scan (1024 B) + 4 per-block base offsets
    EXPECT_EQ(c.global_bytes_read, 1024u + 4 * 4);
    // predicated loads of the 256 matching elements
    EXPECT_EQ(c.scattered_bytes_read, 256u * 4);
    // compacted writes of the same
    EXPECT_EQ(c.global_bytes_written, 256u * 4);
    // ballot-aggregated cursor: one atomic + one ballot per warp that
    // contains matches... every warp's tile is bucket-uniform, so exactly
    // 8 warps match; but the ballot happens in every warp.
    EXPECT_EQ(c.warp_ballots, 32u);
    EXPECT_EQ(c.shared_atomic_ops, 8u);
    // bucket 2 = values [512, 768): extraction preserves order here
    for (std::size_t i = 0; i < 256; ++i) {
        ASSERT_EQ(out[i], 512.0f + static_cast<float>(i));
    }
}

TEST(EventGolden, TimingDeterminism) {
    // Same scenario twice: identical simulated durations, bit for bit.
    auto run = [] {
        Golden g;
        auto totals = g.dev.alloc<std::int32_t>(Golden::kB);
        auto oracles = g.dev.alloc<std::uint8_t>(Golden::kN);
        auto bc = g.dev.alloc<std::int32_t>(4 * Golden::kB);
        core::count_kernel<float>(g.dev, g.data, g.tree, oracles.span(), totals.span(),
                                  bc.span(), g.cfg, simt::LaunchOrigin::host);
        return g.dev.elapsed_ns();
    };
    EXPECT_EQ(run(), run());
}

}  // namespace
