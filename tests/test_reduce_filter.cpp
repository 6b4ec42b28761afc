// Unit tests for the reduce (prefix-sum) and filter (bucket extraction)
// kernels, i.e. the shared-memory atomic hierarchy of Sec. IV-G.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "core/count_kernel.hpp"
#include "core/filter_kernel.hpp"
#include "core/reduce_kernel.hpp"
#include "core/sample_kernel.hpp"
#include "core/searchtree.hpp"
#include "data/distributions.hpp"
#include "golden_hash.hpp"

namespace {

using namespace gpusel;
using core::SampleSelectConfig;

TEST(ReduceKernel, TotalsAreColumnSums) {
    simt::Device dev(simt::arch_v100());
    const int grid = 5;
    const int b = 8;
    auto bc = dev.alloc<std::int32_t>(static_cast<std::size_t>(grid) * b);
    for (int g = 0; g < grid; ++g) {
        for (int i = 0; i < b; ++i) bc[static_cast<std::size_t>(g * b + i)] = g + i;
    }
    auto totals = dev.alloc<std::int32_t>(b);
    core::reduce_kernel(dev, bc.span(), grid, b, totals.span(), false, simt::LaunchOrigin::host);
    for (int i = 0; i < b; ++i) {
        EXPECT_EQ(totals[static_cast<std::size_t>(i)], 5 * i + 10);  // sum over g of (g+i)
    }
}

TEST(ReduceKernel, BlockOffsetsAreExclusivePrefix) {
    simt::Device dev(simt::arch_v100());
    const int grid = 4;
    const int b = 2;
    auto bc = dev.alloc<std::int32_t>(static_cast<std::size_t>(grid) * b);
    // bucket 0 counts per block: 1,2,3,4 ; bucket 1: 10,10,10,10
    for (int g = 0; g < grid; ++g) {
        bc[static_cast<std::size_t>(g * b)] = g + 1;
        bc[static_cast<std::size_t>(g * b + 1)] = 10;
    }
    auto totals = dev.alloc<std::int32_t>(b);
    core::reduce_kernel(dev, bc.span(), grid, b, totals.span(), true, simt::LaunchOrigin::host);
    EXPECT_EQ(totals[0], 10);
    EXPECT_EQ(totals[1], 40);
    const std::int32_t expect0[] = {0, 1, 3, 6};
    const std::int32_t expect1[] = {0, 10, 20, 30};
    for (int g = 0; g < grid; ++g) {
        EXPECT_EQ(bc[static_cast<std::size_t>(g * b)], expect0[g]);
        EXPECT_EQ(bc[static_cast<std::size_t>(g * b + 1)], expect1[g]);
    }
}

TEST(ReduceKernel, MatchesHostColumnScanAcrossShapes) {
    // b < 32 gives a single strip narrower than a warp; g < 32 leaves one
    // row per warp, g = 33 gives one warp a second row and g = 1500 more
    // than 32 rows per warp.  Under GPUSEL_WORKERS the strips of a launch
    // run concurrently on host workers.
    for (const simt::ArchSpec& arch : {simt::arch_v100(), simt::arch_k20xm()}) {
        simt::Device dev(arch, golden::device_options());
        for (const int grid : {1, 5, 31, 33, 160, 1500}) {
            for (const int b : {2, 3, 4, 16, 32, 256, 1024}) {
                const auto g = static_cast<std::size_t>(grid);
                const auto ub = static_cast<std::size_t>(b);
                std::vector<std::int32_t> counts(g * ub);
                for (std::size_t i = 0; i < counts.size(); ++i) {
                    counts[i] = static_cast<std::int32_t>((i * 2654435761u) % 97);
                }
                std::vector<std::int32_t> offsets(g * ub);
                std::vector<std::int32_t> sums(ub, 0);
                for (std::size_t row = 0; row < g; ++row) {
                    for (std::size_t i = 0; i < ub; ++i) {
                        offsets[row * ub + i] = sums[i];
                        sums[i] += counts[row * ub + i];
                    }
                }
                for (const bool keep : {false, true}) {
                    SCOPED_TRACE(arch.name + " g=" + std::to_string(grid) +
                                 " b=" + std::to_string(b) + (keep ? " offsets" : " totals"));
                    auto bc = dev.alloc<std::int32_t>(g * ub);
                    std::copy(counts.begin(), counts.end(), bc.data());
                    auto totals = dev.alloc<std::int32_t>(ub);
                    core::reduce_kernel(dev, bc.span(), grid, b, totals.span(), keep,
                                        simt::LaunchOrigin::host);
                    EXPECT_EQ(std::vector<std::int32_t>(totals.data(), totals.data() + ub), sums);
                    EXPECT_EQ(std::vector<std::int32_t>(bc.data(), bc.data() + g * ub),
                              keep ? offsets : counts);
                }
            }
        }
    }
}

TEST(ReduceKernel, LocatesLikeSelectBucketAcrossShapes) {
    // The level's last counting kernel locates the rank in its grid
    // epilogue: the reduce in shared-atomic mode, the count in global-atomic
    // mode.  Its prefix table and bucket must equal select_bucket_kernel's
    // on the same totals, whichever block finishes last.  Buckets
    // [b/4, b/2) stay empty, so a rank at the end of that run must skip it.
    // The ranks: 0, n - 1, the end of the empty run, and the first and
    // last rank of every bucket -- at b > 32 of the two edge buckets of
    // every 32-bucket reduce strip (which include the run's neighbours),
    // so the suite stays inside its budget under TSan.  Under
    // GPUSEL_WORKERS the blocks of a launch run concurrently.
    for (const simt::ArchSpec& arch : {simt::arch_v100(), simt::arch_k20xm()}) {
        simt::Device dev(arch, golden::device_options());
        for (const int grid : {1, 5, 31, 33, 160}) {
            for (const int b : {2, 4, 32, 256, 1024}) {
                const auto g = static_cast<std::size_t>(grid);
                const auto ub = static_cast<std::size_t>(b);
                const auto empty = [ub](std::size_t i) { return i >= ub / 4 && i < ub / 2; };
                std::vector<std::size_t> filled;
                for (std::size_t i = 0; i < ub; ++i) {
                    if (!empty(i)) filled.push_back(i);
                }
                for (const auto space : {simt::AtomicSpace::shared, simt::AtomicSpace::global}) {
                    const bool shared = space == simt::AtomicSpace::shared;
                    SCOPED_TRACE(arch.name + " g=" + std::to_string(grid) +
                                 " b=" + std::to_string(b) + (shared ? " shared" : " global"));
                    // Shared mode reduces a g x b count table directly.  Global
                    // mode counts g * 256 elements, a grid of g count blocks (at
                    // most 2 per SM: 26 on the K20Xm), against splitters
                    // 1..b-1, each element in a hashed non-empty bucket.
                    auto bc = dev.alloc<std::int32_t>(shared ? g * ub : 1);
                    std::vector<float> data;
                    if (shared) {
                        for (std::size_t i = 0; i < g * ub; ++i) {
                            bc[i] = empty(i % ub)
                                        ? 0
                                        : static_cast<std::int32_t>((i * 2654435761u) % 7);
                        }
                    } else {
                        data.resize(g * 256);
                        for (std::size_t k = 0; k < data.size(); ++k) {
                            data[k] = static_cast<float>(
                                          filled[(k * 2654435761u) % filled.size()]) +
                                      0.5f;
                        }
                    }
                    std::vector<float> splitters(ub - 1);
                    std::iota(splitters.begin(), splitters.end(), 1.0f);
                    const auto tree = core::SearchTree<float>::build(splitters);
                    SampleSelectConfig cfg;
                    cfg.num_buckets = b;
                    cfg.atomic_space = space;
                    auto totals = dev.alloc<std::int32_t>(ub);
                    auto prefix = dev.alloc<std::int32_t>(ub + 1);
                    const auto locate = [&](std::size_t rank) {
                        core::RankLocate loc{.prefix = prefix.span(), .rank = rank};
                        if (shared) {
                            core::reduce_kernel(dev, bc.span(), grid, b, totals.span(), false,
                                                simt::LaunchOrigin::host, 0, &loc);
                        } else {
                            core::launch_memset32(dev, totals.span(), simt::LaunchOrigin::host);
                            core::count_kernel<float>(dev, data, tree, {}, totals.span(), {}, cfg,
                                                      simt::LaunchOrigin::host, -1, &loc);
                        }
                        return loc.bucket;
                    };
                    // The first pass fixes the totals the ranks are drawn from.
                    (void)locate(0);
                    std::vector<std::int32_t> prefix_ref(ub + 1, 0);
                    for (std::size_t i = 0; i < ub; ++i) {
                        prefix_ref[i + 1] = prefix_ref[i] + totals[i];
                    }
                    const auto n = static_cast<std::size_t>(prefix_ref[ub]);
                    ASSERT_GT(n, 0u);
                    std::vector<std::size_t> ranks{0, n - 1,
                                                   static_cast<std::size_t>(prefix_ref[ub / 2])};
                    for (const std::size_t i : filled) {
                        if (totals[i] == 0 || (ub > 32 && i % 32 != 0 && i % 32 != 31)) continue;
                        ranks.push_back(static_cast<std::size_t>(prefix_ref[i]));
                        ranks.push_back(static_cast<std::size_t>(prefix_ref[i + 1]) - 1);
                    }
                    auto sb_prefix = dev.alloc<std::int32_t>(ub + 1);
                    for (const std::size_t rank : ranks) {
                        const std::int32_t bucket = locate(rank);
                        const std::int32_t expect = core::select_bucket_kernel(
                            dev, std::span<const std::int32_t>(totals.span()), sb_prefix.span(),
                            rank, simt::LaunchOrigin::host);
                        ASSERT_EQ(bucket, expect) << "rank " << rank;
                        ASSERT_FALSE(empty(static_cast<std::size_t>(bucket))) << "rank " << rank;
                        ASSERT_TRUE(std::equal(prefix.data(), prefix.data() + ub + 1,
                                               sb_prefix.data()))
                            << "rank " << rank;
                        ASSERT_TRUE(std::equal(prefix.data(), prefix.data() + ub + 1,
                                               prefix_ref.begin()))
                            << "rank " << rank;
                    }
                }
            }
        }
    }
}

TEST(SelectBucketKernel, PrefixAndLowerBound) {
    simt::Device dev(simt::arch_v100());
    auto totals = dev.alloc<std::int32_t>(4);
    totals[0] = 5;
    totals[1] = 0;
    totals[2] = 7;
    totals[3] = 3;
    auto prefix = dev.alloc<std::int32_t>(5);
    EXPECT_EQ(core::select_bucket_kernel(dev, totals.span(), prefix.span(), 0,
                                         simt::LaunchOrigin::host),
              0);
    EXPECT_EQ(core::select_bucket_kernel(dev, totals.span(), prefix.span(), 4,
                                         simt::LaunchOrigin::host),
              0);
    EXPECT_EQ(core::select_bucket_kernel(dev, totals.span(), prefix.span(), 5,
                                         simt::LaunchOrigin::host),
              2);  // bucket 1 is empty
    EXPECT_EQ(core::select_bucket_kernel(dev, totals.span(), prefix.span(), 11,
                                         simt::LaunchOrigin::host),
              2);
    EXPECT_EQ(core::select_bucket_kernel(dev, totals.span(), prefix.span(), 12,
                                         simt::LaunchOrigin::host),
              3);
    EXPECT_EQ(prefix[0], 0);
    EXPECT_EQ(prefix[1], 5);
    EXPECT_EQ(prefix[2], 5);
    EXPECT_EQ(prefix[3], 12);
    EXPECT_EQ(prefix[4], 15);
}

/// End-to-end count -> reduce -> filter pipeline, both atomic flavours.
class FilterPipeline : public ::testing::TestWithParam<std::tuple<simt::AtomicSpace, bool>> {};

TEST_P(FilterPipeline, ExtractsExactlyTheBucketElements) {
    const auto [space, agg] = GetParam();
    simt::Device dev(simt::arch_v100());
    SampleSelectConfig cfg;
    cfg.num_buckets = 32;
    cfg.atomic_space = space;
    cfg.warp_aggregation = agg;
    const std::size_t n = 1 << 13;
    const auto data =
        data::generate<float>({.n = n, .dist = data::Distribution::normal, .seed = 21});
    const auto tree = core::sample_splitters<float>(dev, data, cfg, simt::LaunchOrigin::host);

    const auto b = static_cast<std::size_t>(cfg.num_buckets);
    auto totals = dev.alloc<std::int32_t>(b);
    auto oracles = dev.alloc<std::uint8_t>(n);
    const int grid = simt::suggest_grid(dev.arch(), n, cfg.block_dim, cfg.unroll);
    simt::DeviceBuffer<std::int32_t> block_counts;
    const bool shared = space == simt::AtomicSpace::shared;
    if (shared) {
        block_counts = dev.alloc<std::int32_t>(static_cast<std::size_t>(grid) * b);
    } else {
        core::launch_memset32(dev, totals.span(), simt::LaunchOrigin::host);
    }
    core::count_kernel<float>(dev, data, tree, oracles.span(), totals.span(), block_counts.span(),
                              cfg, simt::LaunchOrigin::host);
    if (shared) {
        core::reduce_kernel(dev, block_counts.span(), grid, cfg.num_buckets, totals.span(), true,
                            simt::LaunchOrigin::host);
    }

    // Extract every bucket and verify it is a permutation of the reference.
    for (std::int32_t bucket = 0; bucket < cfg.num_buckets; ++bucket) {
        const auto size = static_cast<std::size_t>(totals[static_cast<std::size_t>(bucket)]);
        auto out = dev.alloc<float>(size);
        simt::DeviceBuffer<std::int32_t> cursor;
        if (!shared) {
            cursor = dev.alloc<std::int32_t>(1);
            core::launch_memset32(dev, cursor.span(), simt::LaunchOrigin::host);
        }
        core::filter_kernel<float>(dev, data, oracles.span(), bucket, out.span(),
                                   block_counts.span(), cfg.num_buckets, cursor.span(), cfg,
                                   simt::LaunchOrigin::host, grid);
        std::vector<float> expect;
        for (float x : data) {
            if (tree.find_bucket(x) == bucket) expect.push_back(x);
        }
        std::vector<float> got(out.data(), out.data() + size);
        std::sort(expect.begin(), expect.end());
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, expect) << "bucket " << bucket;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, FilterPipeline,
    ::testing::Combine(::testing::Values(simt::AtomicSpace::shared, simt::AtomicSpace::global),
                       ::testing::Bool()),
    [](const auto& info) {
        return std::string(std::get<0>(info.param) == simt::AtomicSpace::shared ? "shared"
                                                                                : "global") +
               (std::get<1>(info.param) ? "_warpagg" : "_plain");
    });

TEST(FilterKernel, SharedModePreservesBlockOrderOffsets) {
    // In shared mode, each block writes its bucket elements into the range
    // the reduce assigned -- so elements keep their relative block order.
    simt::Device dev(simt::arch_v100());
    SampleSelectConfig cfg;
    cfg.num_buckets = 2;
    cfg.atomic_space = simt::AtomicSpace::shared;
    // handcrafted: data 0..4095, splitter tree with single splitter 2048
    const std::size_t n = 4096;
    std::vector<float> data(n);
    std::iota(data.begin(), data.end(), 0.0f);
    const auto tree = core::SearchTree<float>::build({2048.0f});
    auto totals = dev.alloc<std::int32_t>(2);
    auto oracles = dev.alloc<std::uint8_t>(n);
    const int grid = simt::suggest_grid(dev.arch(), n, cfg.block_dim, 1);
    auto bc = dev.alloc<std::int32_t>(static_cast<std::size_t>(grid) * 2);
    core::count_kernel<float>(dev, data, tree, oracles.span(), totals.span(), bc.span(), cfg,
                              simt::LaunchOrigin::host);
    core::reduce_kernel(dev, bc.span(), grid, 2, totals.span(), true, simt::LaunchOrigin::host);
    EXPECT_EQ(totals[0], 2048);
    EXPECT_EQ(totals[1], 2048);
    auto out = dev.alloc<float>(2048);
    core::filter_kernel<float>(dev, data, oracles.span(), 1, out.span(), bc.span(), 2, {}, cfg,
                               simt::LaunchOrigin::host, grid);
    // bucket 1 = values >= 2048, in original order because blocks and lanes
    // process tiles in order under sequential simulation
    for (std::size_t i = 0; i < 2048; ++i) {
        ASSERT_EQ(out[i], static_cast<float>(2048 + i));
    }
}

TEST(FilterKernel, OracleTrafficIsOneBytePerElement) {
    simt::Device dev(simt::arch_v100());
    SampleSelectConfig cfg;
    cfg.num_buckets = 16;
    const std::size_t n = 1 << 12;
    const auto data =
        data::generate<float>({.n = n, .dist = data::Distribution::uniform_real, .seed = 3});
    const auto tree = core::sample_splitters<float>(dev, data, cfg, simt::LaunchOrigin::host);
    auto totals = dev.alloc<std::int32_t>(16);
    auto oracles = dev.alloc<std::uint8_t>(n);
    const int grid = simt::suggest_grid(dev.arch(), n, cfg.block_dim, 1);
    auto bc = dev.alloc<std::int32_t>(static_cast<std::size_t>(grid) * 16);
    core::count_kernel<float>(dev, data, tree, oracles.span(), totals.span(), bc.span(), cfg,
                              simt::LaunchOrigin::host);
    core::reduce_kernel(dev, bc.span(), grid, 16, totals.span(), true, simt::LaunchOrigin::host);
    auto out = dev.alloc<float>(static_cast<std::size_t>(totals[7]));
    dev.clear_profiles();
    core::filter_kernel<float>(dev, data, oracles.span(), 7, out.span(), bc.span(), 16, {}, cfg,
                               simt::LaunchOrigin::host, grid);
    const auto& prof = dev.profiles().back();
    EXPECT_EQ(prof.name, "filter");
    // oracle scan: n bytes coalesced reads (+ per-block offset reads)
    EXPECT_GE(prof.counters.global_bytes_read, n);
    EXPECT_LT(prof.counters.global_bytes_read, n + 16384);
    // element loads only for the bucket's elements (scattered)
    EXPECT_EQ(prof.counters.scattered_bytes_read,
              static_cast<std::uint64_t>(totals[7]) * sizeof(float));
}

}  // namespace
