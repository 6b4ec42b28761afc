// Tests for approximate SampleSelect (Sec. II-C / V-G): error bounds,
// consistency of the reported rank error, and the work reduction relative
// to the exact algorithm.

#include "core/approx_select.hpp"

#include <gtest/gtest.h>

#include "core/sample_select.hpp"
#include "data/distributions.hpp"
#include "stats/order_stats.hpp"

namespace {

using namespace gpusel;
using core::SampleSelectConfig;

SampleSelectConfig approx_cfg(int buckets) {
    SampleSelectConfig cfg;
    cfg.num_buckets = buckets;
    return cfg;
}

TEST(ApproxSelect, Allows1024Buckets) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 14;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 2});
    EXPECT_TRUE(core::try_approx_select<float>(dev, data, n / 2, approx_cfg(1024)).ok());
}

TEST(ApproxSelect, ReportedRankErrorMatchesDataset) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 15;
    const auto data = data::generate<double>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 7});
    const std::size_t rank = n / 3;
    const auto res = core::try_approx_select<double>(dev, data, rank, approx_cfg(256)).value();
    // splitter_rank claims the exact rank of the returned value
    EXPECT_EQ(stats::min_rank<double>(data, res.value), res.splitter_rank);
    EXPECT_EQ(res.rank_error,
              res.splitter_rank > rank ? res.splitter_rank - rank : rank - res.splitter_rank);
}

class ApproxErrorBound : public ::testing::TestWithParam<int> {};

TEST_P(ApproxErrorBound, ErrorAtMostMaxBucketSize) {
    const int buckets = GetParam();
    const std::size_t n = 1 << 15;
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        simt::Device dev(simt::arch_v100());
        const auto data = data::generate<float>(
            {.n = n, .dist = data::Distribution::uniform_real, .seed = seed});
        const std::size_t rank = data::random_rank(n, seed);
        SampleSelectConfig cfg = approx_cfg(buckets);
        cfg.seed = seed * 31 + 1;
        const auto res = core::try_approx_select<float>(dev, data, rank, cfg).value();
        // Sec. II-C: worst case half the max bucket size for interior ranks;
        // boundary ranks can see up to one full bucket.
        EXPECT_LE(res.rank_error, res.max_bucket);
    }
}

INSTANTIATE_TEST_SUITE_P(BucketCounts, ApproxErrorBound, ::testing::Values(128, 256, 512, 1024));

TEST(ApproxSelect, MoreBucketsSmallerError) {
    const std::size_t n = 1 << 16;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 3});
    auto mean_err = [&](int b) {
        double total = 0;
        for (std::uint64_t s = 0; s < 8; ++s) {
            simt::Device dev(simt::arch_v100());
            SampleSelectConfig cfg = approx_cfg(b);
            cfg.seed = s;
            total += static_cast<double>(
                core::try_approx_select<float>(dev, data, data::random_rank(n, s), cfg)
                    .value()
                    .rank_error);
        }
        return total / 8.0;
    };
    // 8x more buckets should clearly reduce the mean rank error.
    EXPECT_LT(mean_err(1024), mean_err(128));
}

TEST(ApproxSelect, RadicallyLessWorkThanExact) {
    const std::size_t n = 1 << 18;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 5});
    simt::Device dex(simt::arch_v100());
    const auto exact = core::try_sample_select<float>(dex, data, n / 2, approx_cfg(256)).value();
    simt::Device dap(simt::arch_v100());
    const auto approx = core::try_approx_select<float>(dap, data, n / 2, approx_cfg(256)).value();
    EXPECT_LT(approx.sim_ns, exact.sim_ns);
    // no oracles, no filter: strictly less global-memory traffic
    EXPECT_LT(dap.counter_totals().total_global_bytes(),
              dex.counter_totals().total_global_bytes());
}

TEST(ApproxSelect, ApproxBucketLimitEnforced) {
    simt::Device dev(simt::arch_v100());
    const auto data = data::generate<float>(
        {.n = 1 << 12, .dist = data::Distribution::uniform_real, .seed = 1});
    EXPECT_EQ(core::try_approx_select<float>(dev, data, 100, approx_cfg(2048)).error(),
              core::SelectError::invalid_argument);
}

TEST(ApproxSelect, WorksWithGlobalAtomics) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 14;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::normal, .seed = 9});
    SampleSelectConfig cfg = approx_cfg(256);
    cfg.atomic_space = simt::AtomicSpace::global;
    const auto res = core::try_approx_select<float>(dev, data, n / 2, cfg).value();
    EXPECT_LE(res.rank_error, res.max_bucket);
}

TEST(ApproxSelect, DuplicateHeavyDataStillBounded) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 14;
    const auto data = data::generate<float>({.n = n,
                                             .dist = data::Distribution::uniform_distinct,
                                             .distinct_values = 16,
                                             .seed = 4});
    const auto res = core::try_approx_select<float>(dev, data, n / 2, approx_cfg(256)).value();
    // With duplicated splitters the reported boundary rank may land anywhere
    // in the value's rank interval (equality buckets shift the boundary past
    // the duplicates), but never outside it.
    const auto lo = stats::min_rank<float>(data, res.value);
    const auto hi = lo + stats::multiplicity<float>(data, res.value);
    EXPECT_GE(res.splitter_rank, lo);
    EXPECT_LE(res.splitter_rank, hi);
    // The reported rank error is an upper bound on the true rank error.
    EXPECT_LE(stats::rank_error<float>(data, res.value, n / 2), res.rank_error);
}

TEST(ApproxSelect, SmoothDataSmallValueError) {
    // Sec. II-C: for smooth distributions the small rank error translates
    // into a small value error.
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 16;
    const auto data = data::generate<double>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 6});
    const std::size_t rank = n / 2;
    const auto res = core::try_approx_select<double>(dev, data, rank, approx_cfg(1024)).value();
    const double exact = stats::nth_element_reference(data, rank);
    EXPECT_NEAR(res.value, exact, 0.01);  // uniform on [0,1): rank err ~ value err
}

}  // namespace
