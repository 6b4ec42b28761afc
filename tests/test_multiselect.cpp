// Tests for multi-rank selection (future-work extension, Sec. VI).

#include "core/multiselect.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "baselines/cpu_reference.hpp"
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

TEST(MultiSelect, LaunchesIndependentOfRankCount) {
    // One level serves every rank: sample, count, reduce (which locates),
    // one multi-bucket filter launch and one batched base case, however
    // many buckets hold a rank.
    const std::size_t n = 1 << 16;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 13});
    std::vector<std::uint64_t> launches;
    for (const std::size_t m : {1, 16, 128}) {
        std::vector<std::size_t> ranks;
        for (std::size_t i = 0; i < m; ++i) ranks.push_back((2 * i + 1) * n / (2 * m));
        simt::Device dev(simt::arch_v100());
        const auto res = core::try_multi_select<float>(dev, data, ranks, {}).value();
        for (std::size_t i = 0; i < m; ++i) {
            EXPECT_EQ(res.values[i], baselines::cpu_nth_element<float>(data, ranks[i]).value)
                << m << " ranks, rank " << ranks[i];
        }
        launches.push_back(res.launches);
    }
    EXPECT_EQ(launches[0], 5u);
    EXPECT_EQ(launches[1], launches[0]);
    EXPECT_EQ(launches[2], launches[0]);
}

TEST(MultiSelect, OversizedChildrenRecurseInPlace) {
    // base_case_size 64 leaves every first-level child oversized, so each
    // recurses on its own segment of the level's buffer; on uniform and
    // duplicate-heavy keys, in both atomic modes.
    const std::size_t n = 1 << 16;
    const auto uniform = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 17});
    const auto dups = data::generate<float>({.n = n,
                                             .dist = data::Distribution::uniform_distinct,
                                             .distinct_values = 20000,
                                             .seed = 19});
    std::vector<std::size_t> ranks{0, 1, n / 7, n / 2, n / 2 + 1, n - 2, n - 1};
    for (std::size_t i = 0; i < 24; ++i) ranks.push_back((i * 2731 + 5) % n);
    for (const auto space : {simt::AtomicSpace::shared, simt::AtomicSpace::global}) {
        core::SampleSelectConfig cfg;
        cfg.base_case_size = 64;
        cfg.atomic_space = space;
        for (const auto* keys : {&uniform, &dups}) {
            simt::Device dev(simt::arch_v100());
            const auto res = core::try_multi_select<float>(dev, *keys, ranks, cfg).value();
            EXPECT_GE(res.max_depth, 2u);
            for (std::size_t i = 0; i < ranks.size(); ++i) {
                EXPECT_EQ(res.values[i], baselines::cpu_nth_element<float>(*keys, ranks[i]).value)
                    << "rank " << ranks[i];
            }
        }
    }
}

TEST(MultiSelect, DeadlineChecksEveryLevelBelowTheFirst) {
    // Oversized children need a second level; a deadline already past when
    // it starts aborts the descent there (level 0 always runs).
    const std::size_t n = 1 << 16;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 23});
    const std::vector<std::size_t> ranks{n / 4, n / 2, 3 * n / 4};
    core::SampleSelectConfig cfg;
    cfg.base_case_size = 64;
    simt::Device dev(simt::arch_v100());
    const auto ok = core::try_multi_select<float>(dev, data, ranks, cfg);
    ASSERT_TRUE(ok.ok()) << ok.status().message;
    EXPECT_GE(ok.value().max_depth, 2u);

    cfg.deadline_ns = 1.0;
    simt::Device late(simt::arch_v100());
    EXPECT_EQ(core::try_multi_select<float>(late, data, ranks, cfg).error(),
              core::SelectError::deadline_exceeded);
}

TEST(MultiSelect, OutOfRangeRankThrows) {
    simt::Device dev(simt::arch_v100());
    const std::vector<float> data{1, 2, 3};
    const std::vector<std::size_t> ranks{3};
    EXPECT_EQ(core::try_multi_select<float>(dev, data, ranks, {}).error(),
              core::SelectError::rank_out_of_range);
}

}  // namespace
