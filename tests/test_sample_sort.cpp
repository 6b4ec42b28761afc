// Tests for the complete sample sort (future-work extension, Sec. VI).

#include "core/sample_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/distributions.hpp"

namespace {

using namespace gpusel;

template <typename T>
void expect_sorts(const std::vector<T>& data, const core::SampleSelectConfig& cfg = {}) {
    simt::Device dev(simt::arch_v100());
    const auto res = core::try_sample_sort<T>(dev, data, cfg).value();
    std::vector<T> expect(data);
    std::sort(expect.begin(), expect.end());
    ASSERT_EQ(res.sorted.size(), expect.size());
    EXPECT_EQ(res.sorted, expect);
}

TEST(SampleSort, EmptyAndTiny) {
    expect_sorts<float>({});
    expect_sorts<float>({3});
    expect_sorts<float>({3, 1});
    expect_sorts<float>({2, 2, 2});
}

TEST(SampleSort, BaseCaseOnly) {
    const auto data = data::generate<float>(
        {.n = 1000, .dist = data::Distribution::uniform_real, .seed = 1});
    expect_sorts(data);
}

class SampleSortDistributions : public ::testing::TestWithParam<data::Distribution> {};

TEST_P(SampleSortDistributions, SortsCorrectly) {
    const auto data = data::generate<float>({.n = 1 << 14, .dist = GetParam(), .seed = 3});
    expect_sorts(data);
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, SampleSortDistributions,
                         ::testing::ValuesIn(data::all_distributions()),
                         [](const auto& info) { return to_string(info.param); });

TEST(SampleSort, DuplicateHeavy) {
    const auto data = data::generate<double>({.n = 1 << 14,
                                              .dist = data::Distribution::uniform_distinct,
                                              .distinct_values = 8,
                                              .seed = 5});
    expect_sorts(data);
}

TEST(SampleSort, LargerMultiLevel) {
    simt::Device dev(simt::arch_v100());
    core::SampleSelectConfig cfg;
    cfg.num_buckets = 16;  // force at least two levels at n = 2^16
    const auto data = data::generate<float>(
        {.n = 1 << 16, .dist = data::Distribution::normal, .seed = 7});
    const auto res = core::try_sample_sort<float>(dev, data, cfg).value();
    EXPECT_TRUE(std::is_sorted(res.sorted.begin(), res.sorted.end()));
    EXPECT_GE(res.max_depth, 1u);
}

TEST(SampleSort, DoublePrecision) {
    const auto data = data::generate<double>(
        {.n = 1 << 13, .dist = data::Distribution::exponential, .seed = 9});
    expect_sorts(data);
}

}  // namespace
