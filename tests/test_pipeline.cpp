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

#include "baselines/cpu_reference.hpp"
#include "bitonic/bitonic.hpp"
#include "core/approx_select.hpp"
#include "core/batched_select.hpp"
#include "core/multiselect.hpp"
#include "core/sample_select.hpp"
#include "core/topk.hpp"
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

/// Kernel names in launch order.
std::vector<std::string> launch_names(const simt::Device& dev) {
    std::vector<std::string> v;
    for (const auto& p : dev.profiles()) v.push_back(p.name);
    return v;
}

TEST(Pipeline, ThreeLaunchesPerLevelBelowTheFirst) {
    // Level 0 is sample, count, reduce and filter: the reduce locates the
    // rank in its grid epilogue, and the filter draws the next level's
    // sample in its own.  A deeper level is count, reduce and filter, and
    // the last filter sorts the base case.
    const std::size_t n = std::size_t{1} << 22;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 1});
    {
        simt::Device dev(simt::arch_v100());
        const auto res = core::try_sample_select<float>(dev, data, n / 2, {}).value();
        EXPECT_EQ(res.levels, 2u);
        EXPECT_EQ(res.launches, 7u);
        EXPECT_EQ(launch_names(dev),
                  (std::vector<std::string>{"sample", "count", "reduce_offsets", "filter", "count",
                                            "reduce_offsets", "filter"}));
        for (const auto& p : dev.profiles()) {
            if (p.name == "filter") EXPECT_NE(p.epilogue, simt::KernelCounters{});
        }
        EXPECT_EQ(res.value, baselines::cpu_nth_element<float>(data, n / 2).value);
    }
    {
        // One read-only count level.
        simt::Device dev(simt::arch_v100());
        const auto res = core::try_approx_select<float>(dev, data, n / 2, {}).value();
        EXPECT_EQ(res.launches, 3u);
        EXPECT_EQ(launch_names(dev),
                  (std::vector<std::string>{"sample", "count_nowrite", "reduce"}));
    }
    {
        // The deterministic fallback levels locate the same way, and every
        // pivot below level 0 is probed in the filter above it.
        simt::Device dev(simt::arch_v100());
        core::SampleSelectConfig cfg;
        cfg.force_fallback = true;
        const auto res = core::try_sample_select<float>(dev, data, n / 2, cfg).value();
        EXPECT_GT(res.fallback_levels, 1u);
        EXPECT_EQ(res.fallback_levels, res.levels);
        EXPECT_EQ(res.launches, 1 + 3 * res.levels);
        const auto v = launch_names(dev);
        EXPECT_EQ(std::count(v.begin(), v.end(), "select_bucket"), 0);
        EXPECT_EQ(std::count(v.begin(), v.end(), "pivot_sample"), 1);
        EXPECT_EQ(v.front(), "pivot_sample");
        EXPECT_EQ(dev.profiles().front().origin, simt::LaunchOrigin::host);
        EXPECT_EQ(res.value, baselines::cpu_nth_element<float>(data, n / 2).value);
    }
}

TEST(Pipeline, AllEqualTopKTakesOnlyWhatItNeeds) {
    // 2^22 equal keys: level 0 locates the equality bucket, and the fused
    // filter writes the k copies top-k needs straight into the accumulator
    // and drops the rest.  No copy launch follows it, and the V100 time
    // stays below the 0.165 ms the deleted radix descent took.
    const std::size_t n = std::size_t{1} << 22;
    const std::size_t k = 100;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_distinct, .distinct_values = 1, .seed = 42});
    simt::Device dev(simt::arch_v100());
    const auto res = core::try_topk_largest<float>(dev, data, k, {}).value();
    EXPECT_EQ(res.levels, 1u);
    EXPECT_LT(res.sim_ns, 165e3);
    const float threshold = baselines::cpu_nth_element<float>(data, n - k).value;
    EXPECT_EQ(res.threshold, threshold);
    ASSERT_EQ(res.elements.size(), k);
    for (const float x : res.elements) ASSERT_EQ(x, threshold);
    const auto v = launch_names(dev);
    EXPECT_EQ(std::count(v.begin(), v.end(), "copy"), 0);
    ASSERT_EQ(v.back(), "filter_topk");
    EXPECT_LE(dev.profiles().back().counters.global_bytes_written, k * sizeof(float));
}

TEST(Pipeline, FaultInAPreDrawnLevelResamples) {
    // A launch fault inside the level whose tree the previous filter drew
    // discards that tree: the retry launches a sample of its own with the
    // attempt salt, and the answer stands.  Searches the fault schedules
    // for one that hits level 1 (a device-origin sample launch shows it).
    const std::size_t n = std::size_t{1} << 20;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 5});
    const float expect = baselines::cpu_nth_element<float>(data, n / 3).value;
    simt::Device clean(simt::arch_v100());
    ASSERT_TRUE(core::try_sample_select<float>(clean, data, n / 3, {}).ok());
    ASSERT_EQ(clean.profiles()[4].name, "count");  // level 1, on the drawn tree
    const simt::KernelCounters drawn_count = clean.profiles()[4].counters;
    bool hit = false;
    for (std::uint64_t seed = 1; seed <= 64 && !hit; ++seed) {
        simt::Device dev(simt::arch_v100());
        dev.set_faults({.seed = seed, .launch_rate = 0.25});
        const auto res = core::try_sample_select<float>(dev, data, n / 3, {});
        ASSERT_TRUE(res.ok()) << res.status().message;
        EXPECT_EQ(res.value().value, expect);
        EXPECT_EQ(res.value().resamples, 0u);
        const auto& prof = dev.profiles();
        const auto is_level1_sample = [](const simt::KernelProfile& p) {
            return p.name == "sample" && p.origin == simt::LaunchOrigin::device;
        };
        const auto first = std::find_if(prof.begin(), prof.end(), is_level1_sample);
        if (first == prof.end()) continue;
        hit = true;
        EXPECT_GE(dev.robustness().launch_retries, 1u);
        EXPECT_EQ(res.value().levels, 2u);
        // The level-0 filter came before the retry's sample, and the last
        // attempt counted after its own.
        EXPECT_NE(std::find_if(prof.begin(), first,
                               [](const simt::KernelProfile& p) { return p.name == "filter"; }),
                  first);
        const auto last = std::find_if(prof.rbegin(), prof.rend(), is_level1_sample);
        ASSERT_NE(last, prof.rbegin());
        EXPECT_EQ(std::prev(last)->name, "count");
        // A fresh salt drew another tree, so level 1 bucketed differently.
        EXPECT_NE(std::prev(last)->counters, drawn_count);
    }
    EXPECT_TRUE(hit) << "no fault schedule hit level 1";
}

TEST(Pipeline, FilterTailsAreCleanUnderSimTSan) {
    // The tails read and write across every block's output after the grid:
    // a sort tail reads each block's `out` writes, a top-k tail writes the
    // accumulator past the cursor region the blocks filled, and a sample
    // tail gathers from the whole bucket.  Strict mode, inline and on two
    // host workers.
    const auto small = data::generate<float>(
        {.n = 1u << 16, .dist = data::Distribution::uniform_real, .seed = 8});
    const auto large = data::generate<float>(
        {.n = 1u << 20, .dist = data::Distribution::uniform_real, .seed = 9});
    for (const unsigned workers : {0u, 2u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        simt::Device dev(simt::arch_v100(), {.host_workers = workers});
        dev.set_sanitizer(simt::SanMode::strict);
        const auto sel = core::try_sample_select<float>(dev, small, 1000, {});
        ASSERT_TRUE(sel.ok()) << sel.status().message;
        EXPECT_EQ(sel.value().value, baselines::cpu_nth_element<float>(small, 1000).value);
        ASSERT_EQ(dev.profiles().back().name, "filter");
        EXPECT_NE(dev.profiles().back().epilogue, simt::KernelCounters{});

        const auto top = core::try_topk_largest<float>(dev, small, 100, {});
        ASSERT_TRUE(top.ok()) << top.status().message;
        EXPECT_EQ(top.value().threshold,
                  baselines::cpu_nth_element<float>(small, small.size() - 100).value);
        ASSERT_EQ(dev.profiles().back().name, "filter_topk");
        EXPECT_NE(dev.profiles().back().epilogue, simt::KernelCounters{});

        const auto deep = core::try_sample_select<float>(dev, large, 12345, {});
        ASSERT_TRUE(deep.ok()) << deep.status().message;
        EXPECT_EQ(deep.value().levels, 2u);
        EXPECT_EQ(deep.value().value, baselines::cpu_nth_element<float>(large, 12345).value);
        EXPECT_EQ(dev.sanitizer()->total_violations(), 0u);
        EXPECT_GT(dev.sanitizer()->checks(), 0u);
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
