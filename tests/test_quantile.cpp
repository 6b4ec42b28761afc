// Tests for the quantile convenience layer (core/quantile.hpp).

#include "core/quantile.hpp"

#include <gtest/gtest.h>

#include "core/approx_select.hpp"
#include "core/multiselect.hpp"
#include "data/distributions.hpp"
#include "stats/order_stats.hpp"

namespace {

using namespace gpusel;
using core::QuantileMethod;
using core::quantile_rank;

TEST(QuantileRank, Endpoints) {
    EXPECT_EQ(quantile_rank(100, 0.0), 0u);
    EXPECT_EQ(quantile_rank(100, 1.0), 99u);
    EXPECT_EQ(quantile_rank(1, 0.5), 0u);
}

TEST(QuantileRank, Methods) {
    // n = 10 -> position of q=0.5 is 4.5
    EXPECT_EQ(quantile_rank(10, 0.5, QuantileMethod::lower), 4u);
    EXPECT_EQ(quantile_rank(10, 0.5, QuantileMethod::higher), 5u);
    // nearest rounds half away from zero: 4.5 -> 5
    EXPECT_EQ(quantile_rank(10, 0.5, QuantileMethod::nearest), 5u);
    // exact positions agree across methods
    for (auto m : {QuantileMethod::lower, QuantileMethod::nearest, QuantileMethod::higher}) {
        EXPECT_EQ(quantile_rank(11, 0.5, m), 5u);
    }
}

TEST(QuantileRank, Invalid) {
    EXPECT_THROW((void)quantile_rank(0, 0.5), std::invalid_argument);
    EXPECT_THROW((void)quantile_rank(10, -0.1), std::invalid_argument);
    EXPECT_THROW((void)quantile_rank(10, 1.1), std::invalid_argument);
}

TEST(Quantile, ExactMatchesReference) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 14;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::lognormal, .seed = 3});
    for (const double q : {0.1, 0.5, 0.9, 0.99}) {
        const auto rank = quantile_rank(n, q);
        const float v = core::try_quantile<float>(dev, data, q).value();
        EXPECT_EQ(stats::rank_error<float>(data, v, rank), 0u) << "q=" << q;
    }
}

TEST(Quantile, MedianShortcut) {
    simt::Device dev(simt::arch_v100());
    const std::vector<double> data{5, 1, 9, 3, 7};
    EXPECT_EQ(core::try_quantile<double>(dev, data, 0.5, {}, QuantileMethod::lower).value(), 5.0);
}

TEST(Quantile, ApproxWithinBucketBound) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 15;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 7});
    const auto r = core::try_approx_select<float>(dev, data, quantile_rank(n, 0.75), {}).value();
    EXPECT_LE(r.rank_error, r.max_bucket);
}

TEST(Quantile, MultiQuantilesOrderedAndCorrect) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 14;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::exponential, .seed = 11});
    const std::vector<double> qs{0.25, 0.5, 0.75};
    std::vector<std::size_t> ranks;
    for (const double q : qs) ranks.push_back(quantile_rank(n, q));
    const auto vs = core::try_multi_select<float>(dev, data, ranks, {}).value().values;
    ASSERT_EQ(vs.size(), 3u);
    EXPECT_LE(vs[0], vs[1]);
    EXPECT_LE(vs[1], vs[2]);
    for (std::size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(stats::rank_error<float>(data, vs[i], quantile_rank(n, qs[i])), 0u);
    }
}

TEST(ApproxMulti, OnePassManyRanks) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 16;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 13});
    std::vector<std::size_t> ranks;
    for (std::size_t i = 1; i < 10; ++i) ranks.push_back(i * n / 10);
    const auto res = core::try_approx_multi_select<float>(dev, data, ranks, {}).value();
    ASSERT_EQ(res.points.size(), ranks.size());
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        const auto& p = res.points[i];
        EXPECT_LE(p.rank_error, p.max_bucket);
        // the reported splitter rank lies within the value's rank interval
        const auto lo = stats::min_rank<float>(data, p.value);
        EXPECT_GE(p.splitter_rank, lo);
        EXPECT_LE(p.splitter_rank, lo + stats::multiplicity<float>(data, p.value));
    }
    // one sample + one count + reduce + select: a handful of launches for 9 ranks
    EXPECT_LE(res.launches, 6u);
}

TEST(ApproxMulti, CostIndependentOfRankCount) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 16;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 17});
    const std::vector<std::size_t> one{n / 2};
    std::vector<std::size_t> many;
    for (std::size_t i = 0; i < 50; ++i) many.push_back(i * n / 50);
    const double t1 = core::try_approx_multi_select<float>(dev, data, one, {}).value().sim_ns;
    const double t50 = core::try_approx_multi_select<float>(dev, data, many, {}).value().sim_ns;
    EXPECT_NEAR(t50, t1, t1 * 0.01);  // identical device work
}

TEST(ApproxMulti, EmptyRanks) {
    simt::Device dev(simt::arch_v100());
    const std::vector<float> data{1, 2, 3};
    const auto res = core::try_approx_multi_select<float>(dev, data, {}, {}).value();
    EXPECT_TRUE(res.points.empty());
}

}  // namespace
