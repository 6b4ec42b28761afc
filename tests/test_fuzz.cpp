// Randomized cross-validation ("fuzz") tests: random datasets, random
// configurations, random ranks -- every algorithm must agree with
// std::nth_element.  These catch interaction bugs the directed tests miss
// (odd sizes, extreme duplicates, tiny/huge buckets, unusual block sizes).

#include <gtest/gtest.h>

#include "baselines/bucketselect.hpp"
#include "baselines/quickselect.hpp"
#include "baselines/radixselect.hpp"
#include "core/sample_select.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "data/rng.hpp"
#include "stats/order_stats.hpp"

namespace {

using namespace gpusel;

struct FuzzCase {
    std::vector<float> data;
    std::size_t rank;
    core::SampleSelectConfig cfg;
    std::string description;
};

FuzzCase make_case(std::uint64_t seed) {
    data::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    FuzzCase c;
    // odd sizes on purpose (not powers of two)
    const std::size_t n = 2 + rng.bounded(40000);
    const auto& dists = data::all_distributions();
    const auto dist = dists[rng.bounded(dists.size())];
    const std::size_t distinct =
        rng.bounded(4) == 0 ? 1 + rng.bounded(64) : 0;  // sometimes few distinct
    c.data = data::generate<float>(
        {.n = n, .dist = dist, .distinct_values = distinct, .seed = seed});
    c.rank = rng.bounded(n);

    const int bucket_choices[] = {4, 16, 64, 256};
    c.cfg.num_buckets = bucket_choices[rng.bounded(4)];
    c.cfg.sample_size = static_cast<int>(
        std::max<std::uint64_t>(static_cast<std::uint64_t>(c.cfg.num_buckets),
                                64 + rng.bounded(2048)));
    c.cfg.block_dim = static_cast<int>(32 * (1 + rng.bounded(8)));
    c.cfg.unroll = static_cast<int>(1 + rng.bounded(8));
    c.cfg.atomic_space =
        rng.bounded(2) == 0 ? simt::AtomicSpace::shared : simt::AtomicSpace::global;
    c.cfg.warp_aggregation = rng.bounded(2) == 0;
    c.cfg.base_case_size = 64 + rng.bounded(1024);
    c.cfg.seed = seed;
    c.description = "seed=" + std::to_string(seed) + " n=" + std::to_string(n) + " dist=" +
                    to_string(dist) + " b=" + std::to_string(c.cfg.num_buckets);
    return c;
}

class Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fuzz, SampleSelectAgreesWithReference) {
    const auto c = make_case(GetParam());
    simt::Device dev(simt::arch_v100());
    const auto r = core::try_sample_select<float>(dev, c.data, c.rank, c.cfg).value();
    EXPECT_EQ(stats::rank_error<float>(c.data, r.value, c.rank), 0u) << c.description;
}

TEST_P(Fuzz, QuickSelectAgreesWithReference) {
    const auto c = make_case(GetParam() + 1000);
    core::QuickSelectConfig qcfg;
    qcfg.atomic_space = c.cfg.atomic_space;
    qcfg.warp_aggregation = c.cfg.warp_aggregation;
    qcfg.block_dim = c.cfg.block_dim;
    qcfg.base_case_size = c.cfg.base_case_size;
    qcfg.seed = c.cfg.seed;
    simt::Device dev(simt::arch_v100());
    const auto r = baselines::quick_select<float>(dev, c.data, c.rank, qcfg);
    EXPECT_EQ(stats::rank_error<float>(c.data, r.value, c.rank), 0u) << c.description;
}

TEST_P(Fuzz, BucketAndRadixAgreeWithReference) {
    const auto c = make_case(GetParam() + 2000);
    simt::Device d1(simt::arch_v100());
    const auto rb = baselines::bucket_select<float>(d1, c.data, c.rank, {});
    EXPECT_EQ(stats::rank_error<float>(c.data, rb.value, c.rank), 0u) << c.description;
    simt::Device d2(simt::arch_v100());
    const auto rr = baselines::radix_select<float>(d2, c.data, c.rank, {});
    EXPECT_EQ(stats::rank_error<float>(c.data, rr.value, c.rank), 0u) << c.description;
}

TEST_P(Fuzz, TopKContainsExactlyTheLargest) {
    const auto c = make_case(GetParam() + 3000);
    const std::size_t k = 1 + c.rank % std::min<std::size_t>(c.data.size(), 500);
    simt::Device dev(simt::arch_v100());
    const auto r = core::try_topk_largest<float>(dev, c.data, k, c.cfg).value();
    ASSERT_EQ(r.elements.size(), k) << c.description;
    std::vector<float> expect(c.data);
    std::sort(expect.begin(), expect.end(), std::greater<>());
    expect.resize(k);
    auto got = r.elements;
    std::sort(got.begin(), got.end(), std::greater<>());
    EXPECT_EQ(got, expect) << c.description;
}

TEST_P(Fuzz, K20PresetAgreesToo) {
    const auto c = make_case(GetParam() + 4000);
    simt::Device dev(simt::preset("K20Xm"));
    const auto r = core::try_sample_select<float>(dev, c.data, c.rank, c.cfg).value();
    EXPECT_EQ(stats::rank_error<float>(c.data, r.value, c.rank), 0u) << c.description;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz, ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
