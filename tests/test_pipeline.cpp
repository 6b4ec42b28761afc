// Tests for the SelectionPipeline layer (core/pipeline.hpp): the Sec. IV-A
// auxiliary-storage bound at the 1M-element scale with ping-pong buffer
// reuse, warm-pool event parity, and front-end edge cases that stress the
// shared descent machinery (duplicate ranks, extreme ranks, single-element
// inputs, all-recursive batches).

#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "bitonic/bitonic.hpp"
#include "core/approx_select.hpp"
#include "core/batched_select.hpp"
#include "core/multiselect.hpp"
#include "core/sample_select.hpp"
#include "data/distributions.hpp"
#include "simt/timing.hpp"
#include "stats/order_stats.hpp"

namespace {

using namespace gpusel;

// Satellite bound test: one million floats must select within
// n * sizeof(float) / 4 auxiliary bytes (the oracle array) plus the
// plan-derived slack for counters and the level-0 bucket buffer.
TEST(Pipeline, MillionElementAuxBytesWithinQuarterPlusSlack) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 20;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 21});
    core::SampleSelectConfig cfg;
    const auto res = core::try_sample_select<float>(dev, data, n / 2, cfg).value();

    const auto plan = core::PipelinePlan::make(dev, n, cfg);
    // scratch_bytes() = oracles (n bytes = n*sizeof(float)/4) + totals +
    // per-block counts + prefix; the level-0 bucket buffer is data-
    // dependent, bounded here by n/16 elements (16x the uniform-data
    // expectation for 256 buckets).
    const std::size_t bound = plan.scratch_bytes() + n * sizeof(float) / 16;
    EXPECT_LE(res.aux_bytes, bound);
    EXPECT_GE(res.aux_bytes, n);  // the oracle array alone is n bytes
}

// Ping-pong + pool reuse must not change simulated behavior: a second
// selection on the same (warm) device replays the identical event stream.
TEST(Pipeline, WarmPoolKeepsEventStreamIdentical) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 16;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 22});
    const auto cold = core::try_sample_select<float>(dev, data, n / 3, {}).value();
    const auto warm = core::try_sample_select<float>(dev, data, n / 3, {}).value();
    EXPECT_EQ(cold.value, warm.value);
    EXPECT_EQ(cold.launches, warm.launches);
    EXPECT_EQ(cold.levels, warm.levels);
    EXPECT_DOUBLE_EQ(cold.sim_ns, warm.sim_ns);
    EXPECT_EQ(cold.aux_bytes, warm.aux_bytes);
}

TEST(Pipeline, PlanGridMatchesSuggestedGrid) {
    simt::Device dev(simt::arch_v100());
    core::SampleSelectConfig cfg;
    const auto plan = core::PipelinePlan::make(dev, 1 << 20, cfg);
    EXPECT_EQ(plan.grid, simt::suggest_grid(dev.arch(), 1 << 20, cfg.block_dim, cfg.unroll));
    EXPECT_EQ(plan.num_buckets, static_cast<std::size_t>(cfg.num_buckets));
    EXPECT_TRUE(plan.shared_mode);
    EXPECT_EQ(plan.block_counts_len(),
              static_cast<std::size_t>(plan.grid) * plan.num_buckets);
}

TEST(Pipeline, FourLaunchesPerSampledLevel) {
    // A level is sample, count, reduce and filter: the reduce locates the
    // rank in its grid epilogue, so no select_bucket launch follows it.
    const std::size_t n = std::size_t{1} << 22;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 1});
    const auto names = [](const simt::Device& dev) {
        std::vector<std::string> v;
        for (const auto& p : dev.profiles()) v.push_back(p.name);
        return v;
    };
    {
        // Two sampled levels and the base case.
        simt::Device dev(simt::arch_v100());
        const auto res = core::try_sample_select<float>(dev, data, n / 2, {}).value();
        EXPECT_EQ(res.levels, 2u);
        EXPECT_EQ(res.launches, 9u);
        EXPECT_EQ(names(dev), (std::vector<std::string>{
                                  "sample", "count", "reduce_offsets", "filter", "sample",
                                  "count", "reduce_offsets", "filter", "bitonic_sort"}));
    }
    {
        // One read-only count level.
        simt::Device dev(simt::arch_v100());
        const auto res = core::try_approx_select<float>(dev, data, n / 2, {}).value();
        EXPECT_EQ(res.launches, 3u);
        EXPECT_EQ(names(dev), (std::vector<std::string>{"sample", "count_nowrite", "reduce"}));
    }
    {
        // The deterministic fallback level locates the same way.
        simt::Device dev(simt::arch_v100());
        core::SampleSelectConfig cfg;
        cfg.force_fallback = true;
        const auto res = core::try_sample_select<float>(dev, data, n / 2, cfg).value();
        EXPECT_GT(res.fallback_levels, 0u);
        const auto v = names(dev);
        EXPECT_EQ(std::count(v.begin(), v.end(), "select_bucket"), 0);
        EXPECT_EQ(std::count(v.begin(), v.end(), "pivot_sample"),
                  static_cast<std::ptrdiff_t>(res.fallback_levels));
    }
}

TEST(MultiSelectEdge, DuplicateRanksReturnOneValuePerQuery) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 14;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 23});
    const std::vector<std::size_t> ranks{n / 2, n / 2, 7, n / 2, 7};
    const auto res = core::try_multi_select<float>(dev, data, ranks, {}).value();
    ASSERT_EQ(res.values.size(), ranks.size());
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        EXPECT_EQ(stats::rank_error<float>(data, res.values[i], ranks[i]), 0u) << "query " << i;
    }
    EXPECT_EQ(res.values[0], res.values[1]);
    EXPECT_EQ(res.values[0], res.values[3]);
    EXPECT_EQ(res.values[2], res.values[4]);
}

TEST(MultiSelectEdge, MinimumAndMaximumRanks) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 15;
    const auto data = data::generate<double>(
        {.n = n, .dist = data::Distribution::normal, .seed = 24});
    const std::vector<std::size_t> ranks{0, n - 1};
    const auto res = core::try_multi_select<double>(dev, data, ranks, {}).value();
    ASSERT_EQ(res.values.size(), 2u);
    EXPECT_EQ(res.values[0], *std::min_element(data.begin(), data.end()));
    EXPECT_EQ(res.values[1], *std::max_element(data.begin(), data.end()));
}

TEST(MultiSelectEdge, SingleElementInput) {
    simt::Device dev(simt::arch_v100());
    const std::vector<float> data{42.0f};
    const std::vector<std::size_t> ranks{0};
    const auto res = core::try_multi_select<float>(dev, data, ranks, {}).value();
    ASSERT_EQ(res.values.size(), 1u);
    EXPECT_EQ(res.values[0], 42.0f);
}

TEST(BatchedSelectEdge, SingleElementSequences) {
    simt::Device dev(simt::arch_v100());
    const std::vector<float> flat{3.0f, 1.0f, 2.0f};
    const std::vector<std::size_t> offsets{0, 1, 2, 3};
    const std::vector<std::size_t> ranks{0, 0, 0};
    const auto res = core::try_batched_select<float>(dev, flat, offsets, ranks, {}).value();
    ASSERT_EQ(res.values.size(), 3u);
    EXPECT_EQ(res.values[0], 3.0f);
    EXPECT_EQ(res.values[1], 1.0f);
    EXPECT_EQ(res.values[2], 2.0f);
    EXPECT_EQ(res.batched_sequences, 3u);
    EXPECT_EQ(res.recursive_sequences, 0u);
}

TEST(BatchedSelectEdge, ExtremeRanksPerSequence) {
    simt::Device dev(simt::arch_v100());
    const std::size_t len = 257;
    const auto flat = data::generate<float>(
        {.n = 2 * len, .dist = data::Distribution::uniform_real, .seed = 25});
    const std::vector<std::size_t> offsets{0, len, 2 * len};
    const std::vector<std::size_t> ranks{0, len - 1};  // min of seq 0, max of seq 1
    const auto res = core::try_batched_select<float>(dev, flat, offsets, ranks, {}).value();
    ASSERT_EQ(res.values.size(), 2u);
    EXPECT_EQ(res.values[0], *std::min_element(flat.begin(), flat.begin() + len));
    EXPECT_EQ(res.values[1], *std::max_element(flat.begin() + len, flat.end()));
}

TEST(BatchedSelectEdge, AllSequencesTakeRecursiveFallback) {
    simt::Device dev(simt::arch_v100());
    const std::size_t len = bitonic::kMaxSortSize + 1;
    const std::size_t m = 3;
    const auto flat = data::generate<float>(
        {.n = m * len, .dist = data::Distribution::uniform_real, .seed = 26});
    std::vector<std::size_t> offsets(m + 1);
    for (std::size_t i = 0; i <= m; ++i) offsets[i] = i * len;
    const std::vector<std::size_t> ranks{0, len / 2, len - 1};
    const auto res = core::try_batched_select<float>(dev, flat, offsets, ranks, {}).value();
    ASSERT_EQ(res.values.size(), m);
    EXPECT_EQ(res.batched_sequences, 0u);
    EXPECT_EQ(res.recursive_sequences, m);
    for (std::size_t i = 0; i < m; ++i) {
        const std::span<const float> seq(flat.data() + offsets[i], len);
        EXPECT_EQ(stats::rank_error<float>(seq, res.values[i], ranks[i]), 0u) << "seq " << i;
    }
}

}  // namespace
