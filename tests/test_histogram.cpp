// Tests for the equi-depth histogram and rank-query API (core/histogram.hpp).

#include "core/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/distributions.hpp"
#include "stats/order_stats.hpp"

namespace {

using namespace gpusel;

core::SampleSelectConfig hcfg(int buckets) {
    core::SampleSelectConfig cfg;
    cfg.num_buckets = buckets;
    return cfg;
}

TEST(EquiDepthHistogram, CountsSumToN) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 15;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::lognormal, .seed = 3});
    const auto h = core::try_equi_depth_histogram<float>(dev, data, hcfg(256)).value();
    std::int64_t total = 0;
    for (auto c : h.counts) total += c;
    EXPECT_EQ(total, static_cast<std::int64_t>(n));
    EXPECT_EQ(h.cumulative.front(), 0);
    EXPECT_EQ(h.cumulative.back(), static_cast<std::int64_t>(n));
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
        EXPECT_EQ(h.cumulative[i + 1] - h.cumulative[i], h.counts[i]);
    }
}

TEST(EquiDepthHistogram, CountsMatchHostReference) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 13;
    const auto data = data::generate<double>(
        {.n = n, .dist = data::Distribution::normal, .seed = 5});
    const auto h = core::try_equi_depth_histogram<double>(dev, data, hcfg(64)).value();
    std::vector<std::int64_t> ref(64, 0);
    for (double x : data) ++ref[static_cast<std::size_t>(h.tree.find_bucket(x))];
    EXPECT_EQ(h.counts, ref);
}

TEST(EquiDepthHistogram, RoughlyEquiDepth) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 17;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::exponential, .seed = 7});
    core::SampleSelectConfig cfg = hcfg(64);
    cfg.sample_size = 4096;  // tight splitters
    const auto h = core::try_equi_depth_histogram<float>(dev, data, cfg).value();
    const auto ideal = static_cast<std::int64_t>(n) / 64;
    for (auto c : h.counts) {
        EXPECT_LT(c, 3 * ideal);  // no bucket grossly overloaded
    }
}

TEST(EquiDepthHistogram, RankBoundsContainTrueRank) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 14;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 9});
    const auto h = core::try_equi_depth_histogram<float>(dev, data, hcfg(128)).value();
    for (std::uint64_t s = 0; s < 50; ++s) {
        const float v = data[data::random_rank(n, s)];
        const auto [lo, hi] = h.rank_bounds(v);
        const auto true_rank = stats::min_rank<float>(data, v);
        EXPECT_GE(true_rank, lo) << v;
        EXPECT_LT(true_rank, hi) << v;
    }
}

TEST(EquiDepthHistogram, CdfMonotoneAndBounded) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 14;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::normal, .seed = 11});
    const auto h = core::try_equi_depth_histogram<float>(dev, data, hcfg(256)).value();
    double prev = -1.0;
    for (float v = -3.0f; v <= 3.0f; v += 0.25f) {
        const double c = h.cdf(v);
        EXPECT_GE(c, 0.0);
        EXPECT_LE(c, 1.0);
        EXPECT_GE(c, prev - 1e-12);
        prev = c;
    }
    EXPECT_LT(h.cdf(-10.0f), 0.02);
    EXPECT_GT(h.cdf(10.0f), 0.98);
}

TEST(EquiDepthHistogram, EmptyThrows) {
    simt::Device dev(simt::arch_v100());
    EXPECT_EQ(core::try_equi_depth_histogram<float>(dev, {}, hcfg(64)).error(),
              core::SelectError::empty_input);
}

TEST(RankOf, ExactCounts) {
    simt::Device dev(simt::arch_v100());
    const std::vector<float> data{1, 2, 2, 3, 3, 3, 4};
    const auto r = core::try_rank_of<float>(dev, data, 3.0f).value();
    EXPECT_EQ(r.less, 3u);
    EXPECT_EQ(r.equal, 3u);
    const auto r2 = core::try_rank_of<float>(dev, data, 2.5f).value();
    EXPECT_EQ(r2.less, 3u);
    EXPECT_EQ(r2.equal, 0u);
}

TEST(RankOf, MatchesStatsReference) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 14;
    const auto data = data::generate<float>({.n = n,
                                             .dist = data::Distribution::uniform_distinct,
                                             .distinct_values = 256,
                                             .seed = 13});
    for (std::uint64_t s = 0; s < 10; ++s) {
        const float v = data[data::random_rank(n, s)];
        const auto r = core::try_rank_of<float>(dev, data, v).value();
        EXPECT_EQ(r.less, stats::min_rank<float>(data, v));
        EXPECT_EQ(r.equal, stats::multiplicity<float>(data, v));
    }
}

TEST(RankOf, EmptyData) {
    simt::Device dev(simt::arch_v100());
    const auto r = core::try_rank_of<float>(dev, {}, 1.0f).value();
    EXPECT_EQ(r.less, 0u);
    EXPECT_EQ(r.equal, 0u);
}

TEST(RankOf, SinglePassTraffic) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 16;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 17});
    (void)core::try_rank_of<float>(dev, data, 0.5f).value();
    const auto c = dev.counter_totals();
    // one read of the input + tiny counter traffic
    EXPECT_GE(c.global_bytes_read, n * sizeof(float));
    EXPECT_LE(c.global_bytes_read, n * sizeof(float) + 4096);
}

}  // namespace
