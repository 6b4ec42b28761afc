// Tests for the fused top-k selection (Sec. IV-I).

#include "core/topk.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "core/argselect.hpp"
#include "data/distributions.hpp"

namespace {

using namespace gpusel;

template <typename T>
void expect_topk(const std::vector<T>& data, std::size_t k, const core::SampleSelectConfig& cfg) {
    simt::Device dev(simt::arch_v100());
    const auto res = core::try_topk_largest<T>(dev, data, k, cfg).value();
    ASSERT_EQ(res.elements.size(), k);

    std::vector<T> expect(data);
    std::sort(expect.begin(), expect.end(), std::greater<>());
    expect.resize(k);
    std::vector<T> got = res.elements;
    std::sort(got.begin(), got.end(), std::greater<>());
    std::sort(expect.begin(), expect.end(), std::greater<>());
    EXPECT_EQ(got, expect);
    EXPECT_EQ(res.threshold, expect.back());
}

TEST(TopK, SmallHandComputed) {
    simt::Device dev(simt::arch_v100());
    const std::vector<float> data{5, 1, 9, 3, 7, 2, 8};
    const auto res = core::try_topk_largest<float>(dev, data, 3, {}).value();
    std::vector<float> got = res.elements;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<float>{7, 8, 9}));
    EXPECT_EQ(res.threshold, 7.0f);
}

class TopKSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TopKSizes, MatchesSortedReference) {
    const std::size_t k = GetParam();
    const std::size_t n = 1 << 15;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 19});
    expect_topk(data, k, {});
}

INSTANTIATE_TEST_SUITE_P(Ks, TopKSizes, ::testing::Values(1u, 10u, 100u, 5000u, 32768u));

TEST(TopK, WorksWithDuplicates) {
    const std::size_t n = 1 << 14;
    const auto data = data::generate<float>({.n = n,
                                             .dist = data::Distribution::uniform_distinct,
                                             .distinct_values = 16,
                                             .seed = 23});
    expect_topk(data, n / 10, {});
    expect_topk(data, std::size_t{5}, {});
    // The threshold's equality bucket writes only the copies still needed,
    // after the higher buckets' elements, through either cursor kind.
    core::SampleSelectConfig global;
    global.atomic_space = simt::AtomicSpace::global;
    expect_topk(data, n / 10, global);
}

TEST(TopK, AllEqualInput) {
    simt::Device dev(simt::arch_v100());
    const std::vector<double> data(1 << 13, 2.5);
    const auto res = core::try_topk_largest<double>(dev, data, 100, {}).value();
    ASSERT_EQ(res.elements.size(), 100u);
    for (double x : res.elements) EXPECT_EQ(x, 2.5);
    EXPECT_EQ(res.threshold, 2.5);
}

TEST(TopK, GlobalAtomicMode) {
    core::SampleSelectConfig cfg;
    cfg.atomic_space = simt::AtomicSpace::global;
    const std::size_t n = 1 << 14;
    const auto data = data::generate<double>(
        {.n = n, .dist = data::Distribution::normal, .seed = 29});
    expect_topk(data, std::size_t{500}, cfg);
}

TEST(TopK, KEqualsNReturnsEverything) {
    const std::size_t n = 1 << 12;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::exponential, .seed = 31});
    expect_topk(data, n, {});
}

TEST(TopKSmallest, MatchesSortedReference) {
    const std::size_t n = 1 << 14;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::normal, .seed = 41});
    simt::Device dev(simt::arch_v100());
    const std::size_t k = 50;
    const auto res = core::try_topk_smallest<float>(dev, data, k, {}).value();
    std::vector<float> expect(data);
    std::sort(expect.begin(), expect.end());
    expect.resize(k);
    std::vector<float> got = res.elements;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect);
    EXPECT_EQ(res.threshold, expect.back());
}

TEST(TopKSmallest, WithDuplicatesAndNegatives) {
    simt::Device dev(simt::arch_v100());
    std::vector<double> data;
    for (int i = 0; i < 5000; ++i) data.push_back(static_cast<double>(i % 7) - 3.0);
    const auto res = core::try_topk_smallest<double>(dev, data, 100, {}).value();
    for (double x : res.elements) EXPECT_EQ(x, -3.0);
    EXPECT_EQ(res.threshold, -3.0);
}

TEST(TopKSmallest, InvalidKThrows) {
    simt::Device dev(simt::arch_v100());
    const std::vector<float> data{1, 2, 3};
    EXPECT_EQ(core::try_topk_smallest<float>(dev, data, 0, {}).error(),
              core::SelectError::rank_out_of_range);
}

TEST(TopK, InvalidKThrows) {
    simt::Device dev(simt::arch_v100());
    const std::vector<float> data{1, 2, 3};
    EXPECT_EQ(core::try_topk_largest<float>(dev, data, 0, {}).error(),
              core::SelectError::rank_out_of_range);
    EXPECT_EQ(core::try_topk_largest<float>(dev, data, 4, {}).error(),
              core::SelectError::rank_out_of_range);
}

TEST(TopKIndices, ValuesMatchInputAtIndices) {
    const std::size_t n = 1 << 14;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 51});
    simt::Device dev(simt::arch_v100());
    const std::size_t k = 200;
    const auto res = core::try_topk_largest_indices(dev, data, k, {}).value();
    ASSERT_EQ(res.values.size(), k);
    ASSERT_EQ(res.indices.size(), k);
    EXPECT_TRUE(std::is_sorted(res.values.begin(), res.values.end(), std::greater<>()));
    std::set<std::size_t> seen;
    for (std::size_t i = 0; i < k; ++i) {
        ASSERT_LT(res.indices[i], n);
        EXPECT_EQ(res.values[i], data[res.indices[i]]) << i;
        EXPECT_TRUE(seen.insert(res.indices[i]).second) << "duplicate index";
    }
    // the selected set is exactly the k largest
    std::vector<float> expect(data);
    std::sort(expect.begin(), expect.end(), std::greater<>());
    expect.resize(k);
    auto got = res.values;
    std::sort(got.begin(), got.end(), std::greater<>());
    std::sort(expect.begin(), expect.end(), std::greater<>());
    EXPECT_EQ(got, expect);
    EXPECT_EQ(res.threshold, expect.back());
}

TEST(TopKIndices, TieHandlingAtThreshold) {
    // many elements equal the threshold: exactly k results, all valid
    simt::Device dev(simt::arch_v100());
    std::vector<float> data(10000, 1.0f);
    for (std::size_t i = 0; i < 50; ++i) data[i * 37] = 2.0f;  // 50 clear winners
    const std::size_t k = 500;  // 50 winners + 450 of the ties
    const auto res = core::try_topk_largest_indices(dev, data, k, {}).value();
    ASSERT_EQ(res.values.size(), k);
    std::size_t twos = 0;
    for (std::size_t i = 0; i < k; ++i) {
        EXPECT_EQ(res.values[i], data[res.indices[i]]);
        if (res.values[i] == 2.0f) ++twos;
    }
    EXPECT_EQ(twos, 50u);
    EXPECT_EQ(res.threshold, 1.0f);
    // Ties are index-stable: the taken 1.0s are the lowest-indexed ones, in
    // ascending index order.
    std::vector<std::uint32_t> ones;
    for (std::size_t i = 0; i < data.size() && ones.size() < k - 50; ++i) {
        if (data[i] == 1.0f) ones.push_back(static_cast<std::uint32_t>(i));
    }
    EXPECT_EQ(std::vector<std::uint32_t>(res.indices.begin() + 50, res.indices.end()), ones);
}

TEST(TopKIndices, KEqualsOne) {
    simt::Device dev(simt::arch_v100());
    const auto data = data::generate<float>(
        {.n = 1 << 13, .dist = data::Distribution::normal, .seed = 53});
    const auto res = core::try_topk_largest_indices(dev, data, 1, {}).value();
    const auto max_it = std::max_element(data.begin(), data.end());
    EXPECT_EQ(res.values[0], *max_it);
    EXPECT_EQ(res.indices[0], static_cast<std::uint32_t>(max_it - data.begin()));
    EXPECT_EQ(res.threshold, *max_it);
}

TEST(TopK, FusedFilterAvoidsExtraPasses) {
    // The upper buckets travel straight to the accumulator: total element
    // traffic must stay well below sorting-everything volumes.
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 17;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 37});
    const auto res = core::try_topk_largest<float>(dev, data, n / 100, {}).value();
    EXPECT_LE(res.levels, 3u);
}

TEST(TopK, SampleBackendHonoursDeadline) {
    // k = 100 of 2^18 distinct floats plans the sample backend, whose
    // descent checks the deadline between levels like exact selection: a
    // 1 ns budget is overrun by the first level.
    simt::Device dev(simt::arch_v100());
    const auto data = data::generate<float>(
        {.n = 1 << 18, .dist = data::Distribution::uniform_distinct, .seed = 43});
    core::SampleSelectConfig cfg;
    cfg.deadline_ns = 1.0;
    EXPECT_EQ(core::try_topk_largest<float>(dev, data, 100, cfg).error(),
              core::SelectError::deadline_exceeded);
    EXPECT_EQ(dev.robustness().backend_sample, 1u);
}

}  // namespace
