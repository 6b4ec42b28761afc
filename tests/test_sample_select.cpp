// Integration tests for exact SampleSelect: correctness against
// std::nth_element (the paper's reference, Sec. V-A) across distributions,
// sizes, duplicate structures, ranks and configurations.

#include "core/sample_select.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "data/distributions.hpp"
#include "stats/order_stats.hpp"

namespace {

using namespace gpusel;
using core::SampleSelectConfig;

template <typename T>
void expect_selects_correctly(const std::vector<T>& data, std::size_t rank,
                              const SampleSelectConfig& cfg) {
    simt::Device dev(simt::arch_v100());
    const auto res = core::try_sample_select<T>(dev, data, rank, cfg).value();
    const T expect = stats::nth_element_reference(data, rank);
    // Values may be duplicated: compare rank intervals, not bit patterns.
    EXPECT_EQ(stats::rank_error<T>(data, res.value, rank), 0u)
        << "got " << res.value << " expected " << expect << " at rank " << rank;
    EXPECT_GT(res.sim_ns, 0.0);
}

TEST(SampleSelect, TinyInputsGoStraightToBaseCase) {
    SampleSelectConfig cfg;
    const std::vector<float> data{5, 3, 9, 1, 7};
    for (std::size_t k = 0; k < data.size(); ++k) {
        simt::Device dev(simt::arch_v100());
        const auto res = core::try_sample_select<float>(dev, data, k, cfg).value();
        EXPECT_EQ(res.value, stats::nth_element_reference(data, k));
        EXPECT_EQ(res.levels, 0u);
    }
}

TEST(SampleSelect, RejectsInvalidRank) {
    simt::Device dev(simt::arch_v100());
    const std::vector<float> data{1, 2, 3};
    EXPECT_EQ(core::try_sample_select<float>(dev, data, 3, {}).error(),
              core::SelectError::rank_out_of_range);
    EXPECT_EQ(core::try_sample_select<float>(dev, std::vector<float>{}, 0, {}).error(),
              core::SelectError::rank_out_of_range);
}

TEST(SampleSelect, RejectsInvalidConfig) {
    simt::Device dev(simt::arch_v100());
    const std::vector<float> data{1, 2, 3};
    SampleSelectConfig cfg;
    cfg.num_buckets = 100;  // not a power of two
    EXPECT_EQ(core::try_sample_select<float>(dev, data, 1, cfg).error(),
              core::SelectError::invalid_argument);
    cfg.num_buckets = 512;  // exceeds the one-byte oracle limit
    EXPECT_EQ(core::try_sample_select<float>(dev, data, 1, cfg).error(),
              core::SelectError::invalid_argument);
}

// ---- the paper's main correctness sweep -----------------------------------

class SampleSelectDistributions
    : public ::testing::TestWithParam<std::tuple<data::Distribution, std::size_t>> {};

TEST_P(SampleSelectDistributions, MatchesNthElementFloat) {
    const auto [dist, seed] = GetParam();
    const std::size_t n = 1 << 15;
    const auto data = data::generate<float>({.n = n, .dist = dist, .seed = seed});
    const std::size_t rank = data::random_rank(n, seed);
    SampleSelectConfig cfg;
    cfg.seed = seed;
    expect_selects_correctly(data, rank, cfg);
}

TEST_P(SampleSelectDistributions, MatchesNthElementDouble) {
    const auto [dist, seed] = GetParam();
    const std::size_t n = 1 << 14;
    const auto data = data::generate<double>({.n = n, .dist = dist, .seed = seed + 1000});
    const std::size_t rank = data::random_rank(n, seed + 1000);
    SampleSelectConfig cfg;
    cfg.seed = seed;
    expect_selects_correctly(data, rank, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, SampleSelectDistributions,
    ::testing::Combine(::testing::ValuesIn(gpusel::data::all_distributions()),
                       ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{3})),
    [](const auto& info) {
        return to_string(std::get<0>(info.param)) + "_seed" +
               std::to_string(std::get<1>(info.param));
    });

// ---- duplicate handling (Sec. IV-C, paper's d = 1,16,128,1024,n inputs) ----

class SampleSelectDuplicates : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SampleSelectDuplicates, CorrectWithDDistinctValues) {
    const std::size_t d = GetParam();
    const std::size_t n = 1 << 15;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_distinct, .distinct_values = d, .seed = 17});
    for (std::uint64_t rs = 0; rs < 4; ++rs) {
        expect_selects_correctly(data, data::random_rank(n, rs), {});
    }
}

INSTANTIATE_TEST_SUITE_P(PaperValues, SampleSelectDuplicates,
                         ::testing::Values(1u, 16u, 128u, 1024u));

TEST(SampleSelect, AllEqualTerminatesViaEqualityBucket) {
    simt::Device dev(simt::arch_v100());
    const std::vector<float> data(1 << 14, 3.5f);
    const auto res = core::try_sample_select<float>(dev, data, 1234, {}).value();
    EXPECT_EQ(res.value, 3.5f);
    EXPECT_TRUE(res.equality_exit);
    EXPECT_EQ(res.levels, 1u);  // one counting level, no filter needed
}

// ---- configuration sweep (Sec. IV-H) ---------------------------------------

class SampleSelectConfigs
    : public ::testing::TestWithParam<std::tuple<int, simt::AtomicSpace, bool, int>> {};

TEST_P(SampleSelectConfigs, CorrectAcrossTuningParameters) {
    const auto [buckets, space, agg, unroll] = GetParam();
    SampleSelectConfig cfg;
    cfg.num_buckets = buckets;
    cfg.atomic_space = space;
    cfg.warp_aggregation = agg;
    cfg.unroll = unroll;
    const std::size_t n = 1 << 14;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 23});
    expect_selects_correctly(data, n / 3, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Tuning, SampleSelectConfigs,
    ::testing::Combine(::testing::Values(16, 64, 256),
                       ::testing::Values(simt::AtomicSpace::shared, simt::AtomicSpace::global),
                       ::testing::Bool(), ::testing::Values(1, 4)),
    [](const auto& info) {
        return "b" + std::to_string(std::get<0>(info.param)) +
               (std::get<1>(info.param) == simt::AtomicSpace::shared ? "_shared" : "_global") +
               (std::get<2>(info.param) ? "_agg" : "_plain") + "_u" +
               std::to_string(std::get<3>(info.param));
    });

// ---- extreme ranks -----------------------------------------------------------

TEST(SampleSelect, MinAndMaxRanks) {
    const std::size_t n = 1 << 14;
    const auto data = data::generate<double>(
        {.n = n, .dist = data::Distribution::exponential, .seed = 31});
    expect_selects_correctly(data, std::size_t{0}, {});
    expect_selects_correctly(data, n - 1, {});
    expect_selects_correctly(data, n / 2, {});
}

// ---- behaviour metadata ------------------------------------------------------

TEST(SampleSelect, RecursionDepthLogarithmic) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 18;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 3});
    SampleSelectConfig cfg;
    cfg.num_buckets = 256;
    const auto res = core::try_sample_select<float>(dev, data, n / 2, cfg).value();
    // 2^18 / 256 = 1024 = base case: one level should normally suffice;
    // allow slack for an unlucky oversized bucket.
    EXPECT_LE(res.levels, 3u);
    EXPECT_GE(res.levels, 1u);
}

TEST(SampleSelect, MoreBucketsReduceLevels) {
    const std::size_t n = 1 << 18;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 5});
    auto levels = [&](int b) {
        simt::Device dev(simt::arch_v100());
        SampleSelectConfig cfg;
        cfg.num_buckets = b;
        return core::try_sample_select<float>(dev, data, n / 2, cfg).value().levels;
    };
    EXPECT_LE(levels(256), levels(4));
}

TEST(SampleSelect, UsesDeviceLaunchesAfterFirstLevel) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 16;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 7});
    SampleSelectConfig cfg;
    cfg.num_buckets = 16;  // force several levels
    dev.clear_profiles();
    (void)core::try_sample_select<float>(dev, data, n / 2, cfg).value();
    bool saw_device_launch = false;
    for (const auto& p : dev.profiles()) {
        if (p.origin == simt::LaunchOrigin::device) saw_device_launch = true;
    }
    EXPECT_TRUE(saw_device_launch);  // dynamic-parallelism tail recursion
}

TEST(SampleSelect, DeterministicAcrossRuns) {
    const std::size_t n = 1 << 14;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::normal, .seed = 11});
    simt::Device dev1(simt::arch_v100());
    simt::Device dev2(simt::arch_v100());
    const auto a = core::try_sample_select<float>(dev1, data, 777, {}).value();
    const auto b = core::try_sample_select<float>(dev2, data, 777, {}).value();
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.sim_ns, b.sim_ns);
    EXPECT_EQ(a.launches, b.launches);
}

TEST(SampleSelect, WorksOnBothArchPresets) {
    const std::size_t n = 1 << 14;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 13});
    for (const char* arch : {"K20Xm", "V100"}) {
        simt::Device dev(simt::preset(arch));
        const auto res = core::try_sample_select<float>(dev, data, n / 4, {}).value();
        EXPECT_EQ(stats::rank_error<float>(data, res.value, n / 4), 0u) << arch;
    }
}

}  // namespace
