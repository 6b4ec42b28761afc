// Tests for multi-rank selection (future-work extension, Sec. VI).

#include "core/multiselect.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/distributions.hpp"
#include "stats/order_stats.hpp"

namespace {

using namespace gpusel;

TEST(MultiSelect, EmptyRanksGiveEmptyResult) {
    simt::Device dev(simt::arch_v100());
    const std::vector<float> data{1, 2, 3};
    const auto res = core::try_multi_select<float>(dev, data, {}, {}).value();
    EXPECT_TRUE(res.values.empty());
}

TEST(MultiSelect, SingleRankMatchesReference) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 14;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 3});
    const std::vector<std::size_t> ranks{n / 2};
    const auto res = core::try_multi_select<float>(dev, data, ranks, {}).value();
    ASSERT_EQ(res.values.size(), 1u);
    EXPECT_EQ(stats::rank_error<float>(data, res.values[0], n / 2), 0u);
}

TEST(MultiSelect, QuartilesOfUniformData) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 15;
    const auto data = data::generate<double>(
        {.n = n, .dist = data::Distribution::normal, .seed = 5});
    const std::vector<std::size_t> ranks{n / 4, n / 2, 3 * n / 4};
    const auto res = core::try_multi_select<double>(dev, data, ranks, {}).value();
    ASSERT_EQ(res.values.size(), 3u);
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        EXPECT_EQ(stats::rank_error<double>(data, res.values[i], ranks[i]), 0u);
    }
    EXPECT_LE(res.values[0], res.values[1]);
    EXPECT_LE(res.values[1], res.values[2]);
}

TEST(MultiSelect, UnsortedRanksPreserveOutputOrder) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 13;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::exponential, .seed = 7});
    const std::vector<std::size_t> ranks{n - 1, 0, n / 2};
    const auto res = core::try_multi_select<float>(dev, data, ranks, {}).value();
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        EXPECT_EQ(stats::rank_error<float>(data, res.values[i], ranks[i]), 0u);
    }
    EXPECT_GE(res.values[0], res.values[2]);  // max >= median
    EXPECT_LE(res.values[1], res.values[2]);  // min <= median
}

TEST(MultiSelect, ManyRanksAcrossDuplicates) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 14;
    const auto data = data::generate<float>({.n = n,
                                             .dist = data::Distribution::uniform_distinct,
                                             .distinct_values = 128,
                                             .seed = 9});
    std::vector<std::size_t> ranks;
    for (std::size_t i = 0; i < 16; ++i) ranks.push_back(i * n / 16);
    const auto res = core::try_multi_select<float>(dev, data, ranks, {}).value();
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        EXPECT_EQ(stats::rank_error<float>(data, res.values[i], ranks[i]), 0u) << i;
    }
}

TEST(MultiSelect, SharedWorkCheaperThanRepeatedSelect) {
    // Selecting 9 deciles in one tree must cost less simulated time than 9
    // independent full selections.
    const std::size_t n = 1 << 16;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 11});
    std::vector<std::size_t> ranks;
    for (std::size_t i = 1; i <= 9; ++i) ranks.push_back(i * n / 10);

    simt::Device multi_dev(simt::arch_v100());
    const auto multi = core::try_multi_select<float>(multi_dev, data, ranks, {}).value();

    simt::Device single_dev(simt::arch_v100());
    double single_total = 0;
    for (std::size_t r : ranks) {
        const std::vector<std::size_t> one{r};
        single_total += core::try_multi_select<float>(single_dev, data, one, {}).value().sim_ns;
    }
    EXPECT_LT(multi.sim_ns, single_total * 0.5);
}

TEST(MultiSelect, OutOfRangeRankThrows) {
    simt::Device dev(simt::arch_v100());
    const std::vector<float> data{1, 2, 3};
    const std::vector<std::size_t> ranks{3};
    EXPECT_EQ(core::try_multi_select<float>(dev, data, ranks, {}).error(),
              core::SelectError::rank_out_of_range);
}

}  // namespace
