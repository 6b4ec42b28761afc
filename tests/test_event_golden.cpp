// Golden event-count regression tests: for small handcrafted scenarios the
// exact counter values are computed by hand and pinned.  These protect the
// instrumentation contract that every paper figure rests on -- if a kernel
// starts charging different byte/atomic/ballot counts, these fail first.

#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "bitonic/bitonic.hpp"
#include "core/count_kernel.hpp"
#include "core/filter_kernel.hpp"
#include "core/reduce_kernel.hpp"
#include "core/sample_kernel.hpp"
#include "core/searchtree.hpp"
#include "golden_hash.hpp"
#include "simt/device.hpp"
#include "simt/timing.hpp"

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
    // One block per strip of 32 adjacent buckets, min(g, 32) warps each
    // owning a contiguous run of count-block rows.  Every global byte moves
    // once: the g x b counts read as coalesced strip segments, the b totals
    // written, and with offsets the g x b counts rewritten in place.  Shared
    // traffic: each warp's run sums written, scanned in place (read + write)
    // and, with offsets, read back as run bases.  Instructions: one per
    // count summed, per run sum scanned and, with offsets, per offset
    // formed.  One barrier before the column scan and, with offsets, a
    // second one before the rewrite.
    struct Shape {
        int g;
        std::size_t b;
        bool offsets;
        int grid;
        int block;
        std::uint64_t read, written, shared, barriers, instr;
    };
    const Shape shapes[] = {
        // g = b = 4: grid ceil(4/32) = 1, block 32 * 4 = 128, one row per
        // warp.  Reads 4*4*4 = 64 B; writes 4*4 = 16 B of totals (+ 64 B of
        // offsets); shared 4*4*4 = 64 B of run sums + 128 B of scan (+ 64 B
        // of bases); instructions 16 + 16 (+ 16).
        {4, 4, false, 1, 128, 64, 16, 192, 1, 32},
        {4, 4, true, 1, 128, 64, 80, 256, 2, 48},
        // g = b = 40: grid ceil(40/32) = 2 (strips of 32 and 8 buckets),
        // block 32 * min(40, 32) = 1024, warps owning 1 or 2 rows.  Reads
        // 40*40*4 = 6400 B; writes 40*4 = 160 B (+ 6400 B); shared
        // 32*40*4 = 5120 B of run sums + 10240 B of scan (+ 5120 B);
        // instructions 40*40 + 32*40 = 2880 (+ 1600); 1 (2) barriers in
        // each of the 2 blocks.
        {40, 40, false, 2, 1024, 6400, 160, 15360, 2, 2880},
        {40, 40, true, 2, 1024, 6400, 6560, 20480, 4, 4480},
    };
    for (const Shape& s : shapes) {
        SCOPED_TRACE("g=" + std::to_string(s.g) + " b=" + std::to_string(s.b) +
                     (s.offsets ? " offsets" : " totals"));
        Golden g;
        auto bc = g.dev.alloc<std::int32_t>(static_cast<std::size_t>(s.g) * s.b);
        for (std::size_t i = 0; i < bc.size(); ++i) bc[i] = 1;
        auto totals = g.dev.alloc<std::int32_t>(s.b);
        g.dev.clear_profiles();
        core::reduce_kernel(g.dev, bc.span(), s.g, static_cast<int>(s.b), totals.span(),
                            s.offsets, simt::LaunchOrigin::host);
        const auto& p = g.dev.profiles().back();
        EXPECT_EQ(p.name, s.offsets ? "reduce_offsets" : "reduce");
        EXPECT_EQ(p.grid_dim, s.grid);
        EXPECT_EQ(p.block_dim, s.block);
        const auto& c = p.counters;
        EXPECT_EQ(c.global_bytes_read, s.read);
        EXPECT_EQ(c.global_bytes_written, s.written);
        EXPECT_EQ(c.scattered_bytes_read + c.scattered_bytes_written, 0u);
        EXPECT_EQ(c.shared_bytes_accessed, s.shared);
        EXPECT_EQ(c.block_barriers, s.barriers);
        EXPECT_EQ(c.instructions, s.instr);
        for (std::size_t i = 0; i < s.b; ++i) EXPECT_EQ(totals[i], s.g);
    }
}

// The locate every located level runs in its last counting kernel's grid
// epilogue (core::locate_epilogue): one pass writing the b + 1 prefix sums
// while reading the b totals, one lower-bound pass, each an instruction per
// bucket.  One warp of one block runs it, priced after the grid body at the
// one-warp utilization floor of 0.02: on the V100 memory-bound at
// (8b + 4) B / (742 B/ns * 0.02 * 0.92 latency efficiency).
simt::KernelCounters locate_counters(std::size_t b) {
    simt::KernelCounters c;
    c.global_bytes_read = b * 4;
    c.global_bytes_written = (b + 1) * 4;
    c.instructions = 2 * b;
    return c;
}

double locate_ns_v100(std::size_t b) {
    return static_cast<double>(8 * b + 4) / (742.0 * 0.02 * 0.92);
}

/// The duration of a launch with an epilogue: launch + body + barriers +
/// epilogue, with the epilogue's term pinned by hand.
void expect_epilogue_duration(const simt::Device& dev, const simt::KernelProfile& p,
                              std::size_t b) {
    const auto t = simt::simulate_time(dev.arch(), p);
    EXPECT_DOUBLE_EQ(t.epilogue_ns, locate_ns_v100(b));
    EXPECT_DOUBLE_EQ(p.sim_ns, t.launch_ns + t.body_ns + t.barrier_ns + locate_ns_v100(b));
    EXPECT_DOUBLE_EQ(t.launch_ns, dev.arch().host_launch_ns);
}

TEST(EventGolden, LocatingReduceKernel) {
    // The ReduceKernelTraffic shapes with a rank to locate: the body's
    // counters are those shapes' plus one ticket atomic per strip block.
    struct Shape {
        int g;
        std::size_t b;
        bool offsets;
        int grid;
        std::uint64_t read, written, shared, barriers, instr;
    };
    const Shape shapes[] = {
        {4, 4, false, 1, 64, 16, 192, 1, 32},
        {4, 4, true, 1, 64, 80, 256, 2, 48},
        {40, 40, false, 2, 6400, 160, 15360, 2, 2880},
        {40, 40, true, 2, 6400, 6560, 20480, 4, 4480},
    };
    for (const Shape& s : shapes) {
        SCOPED_TRACE("g=" + std::to_string(s.g) + " b=" + std::to_string(s.b) +
                     (s.offsets ? " offsets" : " totals"));
        Golden g;
        auto bc = g.dev.alloc<std::int32_t>(static_cast<std::size_t>(s.g) * s.b);
        for (std::size_t i = 0; i < bc.size(); ++i) bc[i] = 1;
        auto totals = g.dev.alloc<std::int32_t>(s.b);
        auto prefix = g.dev.alloc<std::int32_t>(s.b + 1);
        // Every total is g, so rank g * b / 2 opens bucket b / 2.
        core::RankLocate loc{.prefix = prefix.span(),
                             .rank = static_cast<std::size_t>(s.g) * s.b / 2};
        g.dev.clear_profiles();
        core::reduce_kernel(g.dev, bc.span(), s.g, static_cast<int>(s.b), totals.span(),
                            s.offsets, simt::LaunchOrigin::host, 0, &loc);
        ASSERT_EQ(g.dev.profiles().size(), 1u);
        const auto& p = g.dev.profiles().back();
        EXPECT_EQ(p.name, s.offsets ? "reduce_offsets" : "reduce");
        EXPECT_EQ(p.grid_dim, s.grid);
        const auto& c = p.counters;
        EXPECT_EQ(c.global_bytes_read, s.read);
        EXPECT_EQ(c.global_bytes_written, s.written);
        EXPECT_EQ(c.shared_bytes_accessed, s.shared);
        EXPECT_EQ(c.block_barriers, s.barriers);
        EXPECT_EQ(c.instructions, s.instr);
        EXPECT_EQ(c.global_atomic_ops, static_cast<std::uint64_t>(s.grid));  // tickets
        EXPECT_EQ(c.shared_atomic_ops + c.global_atomic_collisions, 0u);
        EXPECT_EQ(p.epilogue, locate_counters(s.b));
        expect_epilogue_duration(g.dev, p, s.b);
        EXPECT_EQ(loc.bucket, static_cast<std::int32_t>(s.b / 2));
        for (std::size_t i = 0; i <= s.b; ++i) {
            EXPECT_EQ(prefix[i], static_cast<std::int32_t>(i) * s.g);
        }
    }
}

TEST(EventGolden, LocatingCountKernelGlobalAggregated) {
    // CountKernelGlobalAggregated with a rank to locate: its 32 aggregated
    // atomics plus one ticket per block (4 blocks), then the locate.
    Golden g;
    g.cfg.atomic_space = simt::AtomicSpace::global;
    g.cfg.warp_aggregation = true;
    auto totals = g.dev.alloc<std::int32_t>(Golden::kB);
    core::launch_memset32(g.dev, totals.span(), simt::LaunchOrigin::host);
    auto oracles = g.dev.alloc<std::uint8_t>(Golden::kN);
    auto prefix = g.dev.alloc<std::int32_t>(Golden::kB + 1);
    core::RankLocate loc{.prefix = prefix.span(), .rank = 600};
    g.dev.clear_profiles();
    core::count_kernel<float>(g.dev, g.data, g.tree, oracles.span(), totals.span(), {}, g.cfg,
                              simt::LaunchOrigin::host, -1, &loc);
    ASSERT_EQ(g.dev.profiles().size(), 1u);
    const auto& p = g.dev.profiles().back();
    EXPECT_EQ(p.name, "count");
    const auto& c = p.counters;
    EXPECT_EQ(c.global_atomic_ops, 32u + 4);
    EXPECT_EQ(c.global_atomic_collisions, 0u);
    EXPECT_EQ(c.warp_ballots, 32u * 2);
    EXPECT_EQ(c.shared_atomic_ops, 0u);
    EXPECT_EQ(p.epilogue, locate_counters(Golden::kB));
    expect_epilogue_duration(g.dev, p, Golden::kB);
    // Prefix 0, 256, 512, 768, 1024: rank 600 lies in bucket 2.
    EXPECT_EQ(loc.bucket, 2);
    for (std::size_t i = 0; i <= Golden::kB; ++i) {
        EXPECT_EQ(prefix[i], 256 * static_cast<std::int32_t>(i));
    }
    // Shared-mode totals are the reduce's to locate.
    g.cfg.atomic_space = simt::AtomicSpace::shared;
    auto bc = g.dev.alloc<std::int32_t>(4 * Golden::kB);
    EXPECT_THROW(core::count_kernel<float>(g.dev, g.data, g.tree, oracles.span(), totals.span(),
                                           bc.span(), g.cfg, simt::LaunchOrigin::host, -1, &loc),
                 std::invalid_argument);
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

/// The Golden input counted and reduced in shared mode: oracles and the
/// per-block offsets of bucket b = values [256 b, 256 b + 256).
struct FilterInput {
    simt::DeviceBuffer<std::uint8_t> oracles;
    simt::DeviceBuffer<std::int32_t> offsets;
};
FilterInput count_and_reduce(Golden& g) {
    g.cfg.atomic_space = simt::AtomicSpace::shared;
    auto totals = g.dev.alloc<std::int32_t>(Golden::kB);
    FilterInput in{g.dev.alloc<std::uint8_t>(Golden::kN),
                   g.dev.alloc<std::int32_t>(4 * Golden::kB)};
    core::count_kernel<float>(g.dev, g.data, g.tree, in.oracles.span(), totals.span(),
                              in.offsets.span(), g.cfg, simt::LaunchOrigin::host);
    core::reduce_kernel(g.dev, in.offsets.span(), 4, Golden::kB, totals.span(), true,
                        simt::LaunchOrigin::host);
    return in;
}

/// The duration of a launch whose epilogue runs the body of `standalone`, a
/// one-block launch: on the V100 both sit at the 0.02 utilization floor, so
/// the epilogue costs the standalone launch minus its launch latency.
void expect_moved_body_duration(const simt::Device& dev, const simt::KernelProfile& p,
                                const simt::KernelProfile& standalone) {
    const auto t = simt::simulate_time(dev.arch(), p);
    const auto alone = simt::simulate_time(dev.arch(), standalone);
    EXPECT_DOUBLE_EQ(t.epilogue_ns, alone.body_ns + alone.barrier_ns);
    EXPECT_DOUBLE_EQ(p.sim_ns, t.launch_ns + t.body_ns + t.barrier_ns + t.epilogue_ns);
    EXPECT_DOUBLE_EQ(t.launch_ns, dev.arch().host_launch_ns);
}

TEST(EventGolden, FilterWithSortEpilogue) {
    // FilterKernelTraffic's launch carrying the base-case tail: the body's
    // counters are its own plus one ticket per block, and the epilogue's
    // are those of a standalone bitonic_sort of the bucket.
    Golden g;
    const FilterInput in = count_and_reduce(g);
    auto plain = g.dev.alloc<float>(256);
    core::filter_kernel<float>(g.dev, g.data, in.oracles.span(), 2, plain.span(),
                               in.offsets.span(), Golden::kB, {}, g.cfg,
                               simt::LaunchOrigin::host, 4);
    auto out = g.dev.alloc<float>(256);
    core::filter_kernel<float>(g.dev, g.data, in.oracles.span(), 2, out.span(), in.offsets.span(),
                               Golden::kB, {}, g.cfg, simt::LaunchOrigin::host, 4, -1,
                               [&](simt::BlockCtx& blk) {
                                   bitonic::sort_small_kernel<float>(blk, out.span(), 256);
                               });
    bitonic::sort_on_device<float>(g.dev, plain.span(), 256);
    const auto& prof = g.dev.profiles();
    ASSERT_EQ(prof.size(), 5u);
    const simt::KernelProfile& fused = prof[3];
    EXPECT_EQ(fused.name, "filter");
    simt::KernelCounters body = fused.counters;
    EXPECT_EQ(body.global_atomic_ops, 4u);  // one ticket per block
    body.global_atomic_ops = 0;
    EXPECT_EQ(body, prof[2].counters);
    EXPECT_EQ(prof[4].name, "bitonic_sort");
    EXPECT_EQ(fused.epilogue, prof[4].counters);
    expect_moved_body_duration(g.dev, fused, prof[4]);
    for (std::size_t i = 0; i < 256; ++i) {
        ASSERT_EQ(out[i], 512.0f + static_cast<float>(i));
        ASSERT_EQ(plain[i], out[i]);
    }
}

TEST(EventGolden, FusedFilterWithSampleEpilogue) {
    // A filter_topk launch that draws the next level's splitters from its
    // bucket: body = the plain fused filter's counters plus one ticket per
    // block; epilogue = a standalone sample launch over the same bucket
    // with the same salt, which also draws the same splitters.
    Golden g;
    const FilterInput in = count_and_reduce(g);
    auto cursors = g.dev.alloc<std::int32_t>(2);
    auto plain = g.dev.alloc<float>(256);
    auto plain_upper = g.dev.alloc<float>(256);
    core::filter_fused_topk_kernel<float>(g.dev, g.data, in.oracles.span(), 2, plain.span(),
                                          plain_upper.span(), in.offsets.span(), Golden::kB,
                                          cursors.span(), g.cfg, simt::LaunchOrigin::host, 4);
    cursors[1] = 0;
    auto out = g.dev.alloc<float>(256);
    auto upper = g.dev.alloc<float>(256);
    std::vector<float> drawn(Golden::kB - 1);
    constexpr std::uint64_t kSalt = 977;
    core::filter_fused_topk_kernel<float>(
        g.dev, g.data, in.oracles.span(), 2, out.span(), upper.span(), in.offsets.span(),
        Golden::kB, cursors.span(), g.cfg, simt::LaunchOrigin::host, 4, -1,
        [&](simt::BlockCtx& blk) {
            core::draw_splitters<float>(blk, out.span(), g.cfg, kSalt, drawn);
        });
    const auto tree =
        core::sample_splitters<float>(g.dev, out.span(), g.cfg, simt::LaunchOrigin::host, kSalt);
    const auto& prof = g.dev.profiles();
    ASSERT_EQ(prof.size(), 5u);
    const simt::KernelProfile& fused = prof[3];
    EXPECT_EQ(fused.name, "filter_topk");
    simt::KernelCounters body = fused.counters;
    EXPECT_EQ(body.global_atomic_ops, prof[2].counters.global_atomic_ops + 4);
    body.global_atomic_ops = prof[2].counters.global_atomic_ops;
    EXPECT_EQ(body, prof[2].counters);
    EXPECT_EQ(prof[4].name, "sample");
    EXPECT_EQ(fused.epilogue, prof[4].counters);
    expect_moved_body_duration(g.dev, fused, prof[4]);
    EXPECT_EQ(drawn, tree.splitters);
    EXPECT_EQ(cursors[1], 256);  // bucket 3 went to `upper`
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
