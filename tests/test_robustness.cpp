// Robustness-hardening tests (docs/robustness.md): typed Status errors for
// every front-end precondition, the float-key total order (NaN / +-inf /
// -0.0) applied consistently across the stack, the guaranteed-progress
// fallback descent, and recovery counters under injected faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "baselines/cpu_reference.hpp"
#include "core/approx_select.hpp"
#include "core/argselect.hpp"
#include "core/batch_executor.hpp"
#include "core/batched_select.hpp"
#include "core/float_order.hpp"
#include "core/histogram.hpp"
#include "core/multiselect.hpp"
#include "core/quantile.hpp"
#include "core/sample_select.hpp"
#include "core/sample_sort.hpp"
#include "core/status.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "simt/arch.hpp"
#include "simt/device.hpp"

namespace {

using namespace gpusel;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

core::SampleSelectConfig small_cfg() {
    core::SampleSelectConfig cfg;
    cfg.num_buckets = 16;
    cfg.base_case_size = 256;
    return cfg;
}

/// Sorted copy under the pipeline's total order (NaNs last).
template <typename T>
std::vector<T> total_sorted(std::span<const T> data) {
    std::vector<T> copy(data.begin(), data.end());
    std::sort(copy.begin(), copy.end(), [](T a, T b) { return core::total_less(a, b); });
    return copy;
}

std::vector<double> nan_laced(std::size_t n, std::size_t every, std::uint64_t seed) {
    auto data = data::generate<double>({.n = n, .dist = data::Distribution::normal, .seed = seed});
    for (std::size_t i = 0; i < n; i += every) data[i] = kNan;
    return data;
}

std::vector<float> to_floats(const std::vector<double>& data) {
    return {data.begin(), data.end()};
}

// ---- typed preconditions, one per front-end ---------------------------------

TEST(TypedErrors, SampleSelectRankOutOfRange) {
    simt::Device dev(simt::arch_v100());
    const std::vector<double> data{1.0, 2.0, 3.0};
    auto res = core::try_sample_select<double>(dev, data, 3, {});
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error(), core::SelectError::rank_out_of_range);

    auto empty = core::try_sample_select<double>(dev, {}, 0, {});
    ASSERT_FALSE(empty.ok());
    EXPECT_EQ(empty.error(), core::SelectError::rank_out_of_range);
}

TEST(TypedErrors, SampleSelectInvalidConfig) {
    simt::Device dev(simt::arch_v100());
    const std::vector<double> data{1.0, 2.0, 3.0};
    core::SampleSelectConfig cfg;
    cfg.num_buckets = 13;  // not a power of two
    auto res = core::try_sample_select<double>(dev, data, 1, cfg);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error(), core::SelectError::invalid_argument);
}

TEST(TypedErrors, TopKBadK) {
    simt::Device dev(simt::arch_v100());
    const std::vector<float> data{1.0f, 2.0f, 3.0f};
    EXPECT_EQ(core::try_topk_largest<float>(dev, data, 0, {}).error(),
              core::SelectError::rank_out_of_range);
    EXPECT_EQ(core::try_topk_largest<float>(dev, data, 4, {}).error(),
              core::SelectError::rank_out_of_range);
    EXPECT_EQ(core::try_topk_smallest<float>(dev, data, 0, {}).error(),
              core::SelectError::rank_out_of_range);
}

TEST(TypedErrors, MultiSelectRankOutOfRange) {
    simt::Device dev(simt::arch_v100());
    const std::vector<double> data{1.0, 2.0};
    const std::vector<std::size_t> ranks{0, 2};
    EXPECT_EQ(core::try_multi_select<double>(dev, data, ranks, {}).error(),
              core::SelectError::rank_out_of_range);

    auto none = core::try_multi_select<double>(dev, data, {}, {});
    ASSERT_TRUE(none.ok());
    EXPECT_TRUE(none.value().values.empty());
}

TEST(TypedErrors, HistogramEmptyInput) {
    simt::Device dev(simt::arch_v100());
    EXPECT_EQ(core::try_equi_depth_histogram<float>(dev, {}, {}).error(),
              core::SelectError::empty_input);
}

TEST(TypedErrors, ApproxSelectRankOutOfRange) {
    simt::Device dev(simt::arch_v100());
    const std::vector<float> data{1.0f, 2.0f};
    EXPECT_EQ(core::try_approx_select<float>(dev, data, 2, {}).error(),
              core::SelectError::rank_out_of_range);
}

TEST(TypedErrors, BatchedSelectShapeAndRanks) {
    simt::Device dev(simt::arch_v100());
    const std::vector<float> flat{1.0f, 2.0f, 3.0f};
    const std::vector<std::size_t> offsets{0, 2, 3};
    // rank 2 in a 2-element sequence
    EXPECT_EQ(core::try_batched_select<float>(dev, flat, offsets,
                                              std::vector<std::size_t>{2, 0}, {})
                  .error(),
              core::SelectError::rank_out_of_range);
    // empty sequence
    EXPECT_EQ(core::try_batched_select<float>(dev, flat, std::vector<std::size_t>{0, 0, 3},
                                              std::vector<std::size_t>{0, 0}, {})
                  .error(),
              core::SelectError::empty_input);
    // offsets not spanning the flat array
    EXPECT_EQ(core::try_batched_select<float>(dev, flat, std::vector<std::size_t>{0, 2},
                                              std::vector<std::size_t>{0}, {})
                  .error(),
              core::SelectError::invalid_argument);
}

TEST(TypedErrors, QuantileRank) {
    EXPECT_EQ(core::try_quantile_rank(0, 0.5).error(), core::SelectError::empty_input);
    EXPECT_EQ(core::try_quantile_rank(10, 1.5).error(), core::SelectError::invalid_argument);
    EXPECT_EQ(core::try_quantile_rank(10, kNan).error(), core::SelectError::invalid_argument);
    auto ok = core::try_quantile_rank(11, 0.5);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value(), 5u);
}

// A stream the device does not have, or a malformed config, is an argument
// error of every single-device front-end: typed, never a throw or a
// terminate from the simulator's stream table.
TEST(TypedErrors, ConfigErrorsAreTyped) {
    const std::vector<float> data =
        data::generate<float>({.n = 4096, .dist = data::Distribution::normal, .seed = 7});
    std::vector<std::uint32_t> payloads(data.size());
    std::iota(payloads.begin(), payloads.end(), 0u);
    const std::vector<std::size_t> ranks{1, 2};
    const std::vector<std::size_t> offsets{0, data.size()};
    const std::vector<std::size_t> one_rank{3};
    const std::vector<core::BatchProblem<float>> problems{{data, 3}};
    const std::vector<core::TopKBatchProblem<float>> topk_problems{{data, 3}};
    const auto e = core::SelectError::invalid_argument;

    for (const int stream : {7, -1}) {
        SCOPED_TRACE(stream);
        simt::Device dev(simt::arch_v100());
        core::SampleSelectConfig cfg;
        cfg.stream = stream;
        EXPECT_EQ(core::try_sample_select<float>(dev, data, 10, cfg).error(), e);
        EXPECT_EQ(core::try_quantile<float>(dev, data, 0.5, cfg).error(), e);
        EXPECT_EQ(core::try_topk_largest<float>(dev, data, 5, cfg).error(), e);
        EXPECT_EQ(core::try_topk_smallest<float>(dev, data, 5, cfg).error(), e);
        EXPECT_EQ(core::try_topk_largest_batch<float>(dev, topk_problems, cfg).error(), e);
        EXPECT_EQ(core::try_multi_select<float>(dev, data, ranks, cfg).error(), e);
        EXPECT_EQ(core::try_approx_select<float>(dev, data, 10, cfg).error(), e);
        EXPECT_EQ(core::try_approx_multi_select<float>(dev, data, ranks, cfg).error(), e);
        EXPECT_EQ(core::try_equi_depth_histogram<float>(dev, data, cfg).error(), e);
        EXPECT_EQ(core::try_rank_of<float>(dev, data, 0.0f, cfg).error(), e);
        EXPECT_EQ(core::try_sample_sort<float>(dev, data, cfg).error(), e);
        EXPECT_EQ(core::try_batched_select<float>(dev, data, offsets, one_rank, cfg).error(), e);
        EXPECT_EQ(core::BatchExecutor<float>(dev, cfg).run(problems).error(), e);
        EXPECT_EQ(core::try_argselect(dev, data, 10, cfg).error(), e);
        EXPECT_EQ(core::try_topk_largest_indices(dev, data, 5, cfg).error(), e);
        EXPECT_EQ(core::try_partial_sort_by_key(dev, data, payloads, 5, cfg).error(), e);
        // Nothing was leased, launched or left pending.
        EXPECT_EQ(dev.stream_count(), 1);
        EXPECT_EQ(dev.launch_count(), 0u);
    }

    simt::Device dev(simt::arch_v100());
    core::SampleSelectConfig bad;
    bad.block_dim = 48;  // not a multiple of the warp size
    EXPECT_EQ(core::try_rank_of<float>(dev, data, 0.0f, bad).error(), e);
}

// One precondition failure of each kind, each reported as its typed code.
TEST(TypedErrors, LegacyWrappersKeepExceptionTypes) {
    simt::Device dev(simt::arch_v100());
    const std::vector<double> data{1.0, 2.0, 3.0};
    EXPECT_EQ(core::try_sample_select<double>(dev, data, 9, {}).error(),
              core::SelectError::rank_out_of_range);
    EXPECT_EQ(core::try_equi_depth_histogram<double>(dev, {}, {}).error(),
              core::SelectError::empty_input);
    core::SampleSelectConfig bad;
    bad.num_buckets = 13;
    EXPECT_EQ(core::try_sample_select<double>(dev, data, 1, bad).error(),
              core::SelectError::invalid_argument);
}

TEST(TypedErrors, ValueOfFailedResultAborts) {
    simt::Device dev(simt::arch_v100());
    const std::vector<double> data{1.0, 2.0, 3.0};
    EXPECT_DEATH((void)core::try_sample_select<double>(dev, data, 9, {}).value(),
                 "rank_out_of_range: rank out of range");
}

// ---- float key semantics: NaN / +-inf / -0.0 --------------------------------

TEST(FloatOrder, TotalOrderBasics) {
    EXPECT_TRUE(core::total_less(-kInf, kInf));
    EXPECT_TRUE(core::total_less(kInf, kNan));
    EXPECT_FALSE(core::total_less(kNan, kNan));
    EXPECT_TRUE(core::total_equal(kNan, kNan));
    EXPECT_TRUE(core::total_equal(-0.0, 0.0));
    EXPECT_FALSE(core::total_less(-0.0, 0.0));
    EXPECT_FALSE(core::total_less(0.0, -0.0));
}

TEST(NanKeys, SampleSelectMatchesTotalOrderReference) {
    simt::Device dev(simt::arch_v100());
    const auto data = nan_laced(4096, 17, 31);
    const auto sorted = total_sorted<double>(data);
    const std::size_t nans = core::count_nan_keys(std::span<const double>(data));
    ASSERT_GT(nans, 0u);

    // A numeric rank agrees with the total-order reference ...
    const std::size_t mid = (data.size() - nans) / 2;
    auto res = core::try_sample_select<double>(dev, data, mid, small_cfg());
    ASSERT_TRUE(res.ok()) << res.status().to_message();
    EXPECT_EQ(res.value().value, sorted[mid]);
    EXPECT_EQ(res.value().nan_count, nans);

    // ... and a rank inside the NaN tail answers quiet NaN.
    auto tail = core::try_sample_select<double>(dev, data, data.size() - 1, small_cfg());
    ASSERT_TRUE(tail.ok());
    EXPECT_TRUE(std::isnan(tail.value().value));
}

TEST(NanKeys, CpuReferencesAgreeWithDevice) {
    const auto data = nan_laced(3000, 13, 77);
    const auto sorted = total_sorted<double>(data);
    for (const std::size_t rank : {std::size_t{0}, std::size_t{1499}, data.size() - 1}) {
        const auto nth = baselines::cpu_nth_element<double>(data, rank);
        EXPECT_TRUE(core::total_equal(nth.value, sorted[rank])) << rank;
        const double serial = baselines::serial_sample_select<double>(data, rank, 16, 64, 5);
        EXPECT_TRUE(core::total_equal(serial, sorted[rank])) << rank;
    }
}

TEST(NanKeys, RejectPolicyFailsEveryFrontEnd) {
    simt::Device dev(simt::arch_v100());
    const auto data = nan_laced(2048, 9, 3);
    auto cfg = small_cfg();
    cfg.nan_policy = core::NanPolicy::reject;
    const auto e = core::SelectError::nan_keys_rejected;

    EXPECT_EQ(core::try_sample_select<double>(dev, data, 10, cfg).error(), e);
    EXPECT_EQ(core::try_topk_largest<double>(dev, data, 5, cfg).error(), e);
    EXPECT_EQ(core::try_topk_smallest<double>(dev, data, 5, cfg).error(), e);
    EXPECT_EQ(core::try_multi_select<double>(dev, data, std::vector<std::size_t>{1, 2}, cfg)
                  .error(),
              e);
    EXPECT_EQ(core::try_equi_depth_histogram<double>(dev, data, cfg).error(), e);
    EXPECT_EQ(core::try_approx_select<double>(dev, data, 10, cfg).error(), e);
    EXPECT_EQ(core::try_sample_sort<double>(dev, data, cfg).error(), e);
    const std::vector<std::size_t> offsets{0, data.size()};
    EXPECT_EQ(core::try_batched_select<double>(dev, data, offsets,
                                               std::vector<std::size_t>{0}, cfg)
                  .error(),
              e);
    const std::vector<core::BatchProblem<double>> problems{{data, 0}};
    EXPECT_EQ(core::BatchExecutor<double>(dev, cfg).run(problems).error(), e);
    const std::vector<core::TopKBatchProblem<double>> topk_problems{{data, 5}};
    EXPECT_EQ(core::try_topk_largest_batch<double>(dev, topk_problems, cfg).error(), e);
    EXPECT_EQ(core::try_approx_multi_select<double>(dev, data, std::vector<std::size_t>{1, 2},
                                                    cfg)
                  .error(),
              e);

    const std::vector<float> keys = to_floats(data);
    std::vector<std::uint32_t> payloads(keys.size());
    std::iota(payloads.begin(), payloads.end(), 0u);
    EXPECT_EQ(core::try_argselect(dev, keys, 10, cfg).error(), e);
    EXPECT_EQ(core::try_topk_largest_indices(dev, keys, 5, cfg).error(), e);
    EXPECT_EQ(core::try_partial_sort_by_key(dev, keys, payloads, 5, cfg).error(), e);
}

TEST(NanKeys, ApproxSelectAnswersNanTailRanksExactly) {
    simt::Device dev(simt::arch_v100());
    const auto data = nan_laced(4096, 17, 29);
    const std::size_t nans = core::count_nan_keys(std::span<const double>(data));
    const std::size_t n_num = data.size() - nans;
    ASSERT_GE(nans, 2u);

    for (const std::size_t rank : {n_num, data.size() - 1}) {
        auto one = core::try_approx_select<double>(dev, data, rank, small_cfg());
        ASSERT_TRUE(one.ok()) << one.status().to_message();
        EXPECT_TRUE(std::isnan(one.value().value)) << rank;
        EXPECT_EQ(one.value().rank_error, 0u) << rank;
        EXPECT_EQ(one.value().splitter_rank, rank);
    }

    const std::vector<std::size_t> ranks{n_num / 2, n_num, data.size() - 1};
    auto multi = core::try_approx_multi_select<double>(dev, data, ranks, small_cfg());
    ASSERT_TRUE(multi.ok()) << multi.status().to_message();
    const auto& pts = multi.value().points;
    ASSERT_EQ(pts.size(), ranks.size());
    EXPECT_FALSE(std::isnan(pts[0].value));
    for (std::size_t q = 1; q < ranks.size(); ++q) {
        EXPECT_TRUE(std::isnan(pts[q].value)) << q;
        EXPECT_EQ(pts[q].rank_error, 0u) << q;
        EXPECT_EQ(pts[q].splitter_rank, ranks[q]) << q;
    }
}

TEST(NanKeys, HistogramPutsEveryNanInTheLastBucket) {
    simt::Device dev(simt::arch_v100());
    const auto data = nan_laced(4096, 13, 31);
    const std::size_t nans = core::count_nan_keys(std::span<const double>(data));
    ASSERT_GE(nans, 2u);
    auto res = core::try_equi_depth_histogram<double>(dev, data, small_cfg());
    ASSERT_TRUE(res.ok()) << res.status().to_message();
    const auto& h = res.value();
    const auto b = static_cast<std::size_t>(h.tree.num_buckets);
    ASSERT_EQ(h.counts.size(), b);

    // Every bucket holds exactly the keys the host-side tree sends there,
    // and find_bucket sends a NaN probe to the last bucket.
    std::vector<std::int64_t> expect(b, 0);
    for (const double x : data) ++expect[static_cast<std::size_t>(h.tree.find_bucket(x))];
    EXPECT_EQ(h.counts, expect);
    std::int64_t numeric_last = 0;
    for (const double x : data) {
        if (!std::isnan(x) && h.tree.find_bucket(x) == h.tree.num_buckets - 1) ++numeric_last;
    }
    EXPECT_EQ(h.counts[b - 1], numeric_last + static_cast<std::int64_t>(nans));
    EXPECT_EQ(h.cumulative[b], static_cast<std::int64_t>(data.size()));
}

TEST(NanKeys, TopKLargestClaimsNansFirst) {
    simt::Device dev(simt::arch_v100());
    auto data = nan_laced(4096, 64, 11);
    const std::size_t nans = core::count_nan_keys(std::span<const double>(data));
    ASSERT_GE(nans, 3u);

    // k <= nan_count: everything returned is NaN.
    auto all_nan = core::try_topk_largest<double>(dev, data, 3, small_cfg());
    ASSERT_TRUE(all_nan.ok()) << all_nan.status().to_message();
    for (const double v : all_nan.value().elements) EXPECT_TRUE(std::isnan(v));
    EXPECT_TRUE(std::isnan(all_nan.value().threshold));

    // k > nan_count: exactly nan_count NaNs plus the largest numerics.
    const std::size_t k = nans + 40;
    auto mixed = core::try_topk_largest<double>(dev, data, k, small_cfg());
    ASSERT_TRUE(mixed.ok()) << mixed.status().to_message();
    const auto& elems = mixed.value().elements;
    ASSERT_EQ(elems.size(), k);
    const auto got_nans = static_cast<std::size_t>(
        std::count_if(elems.begin(), elems.end(), [](double v) { return std::isnan(v); }));
    EXPECT_EQ(got_nans, nans);
    const auto sorted = total_sorted<double>(data);
    const double kth = sorted[sorted.size() - k];  // k-th largest in the total order
    for (const double v : elems) {
        if (!std::isnan(v)) {
            EXPECT_GE(v, kth);
        }
    }
    EXPECT_TRUE(core::total_equal(mixed.value().threshold, kth));
}

TEST(NanKeys, TopKSmallestAvoidsNans) {
    simt::Device dev(simt::arch_v100());
    const auto data = nan_laced(4096, 64, 19);
    auto res = core::try_topk_smallest<double>(dev, data, 50, small_cfg());
    ASSERT_TRUE(res.ok()) << res.status().to_message();
    const auto sorted = total_sorted<double>(data);
    for (const double v : res.value().elements) {
        EXPECT_FALSE(std::isnan(v));
        EXPECT_LE(v, sorted[49]);
    }
    EXPECT_EQ(res.value().threshold, sorted[49]);
}

TEST(NanKeys, SampleSortPutsNansLast) {
    simt::Device dev(simt::arch_v100());
    const auto data = nan_laced(4096, 33, 23);
    const std::size_t nans = core::count_nan_keys(std::span<const double>(data));
    auto res = core::try_sample_sort<double>(dev, data, small_cfg());
    ASSERT_TRUE(res.ok()) << res.status().to_message();
    const auto& sorted = res.value().sorted;
    ASSERT_EQ(sorted.size(), data.size());
    EXPECT_EQ(res.value().nan_count, nans);
    const std::size_t n_num = sorted.size() - nans;
    for (std::size_t i = 1; i < n_num; ++i) EXPECT_LE(sorted[i - 1], sorted[i]) << i;
    for (std::size_t i = n_num; i < sorted.size(); ++i) EXPECT_TRUE(std::isnan(sorted[i])) << i;
}

TEST(NanKeys, MultiSelectStraddlesTheNanTail) {
    simt::Device dev(simt::arch_v100());
    const auto data = nan_laced(4096, 21, 41);
    const std::size_t nans = core::count_nan_keys(std::span<const double>(data));
    const std::size_t n_num = data.size() - nans;
    const std::vector<std::size_t> ranks{0, n_num - 1, n_num, data.size() - 1};
    auto res = core::try_multi_select<double>(dev, data, ranks, small_cfg());
    ASSERT_TRUE(res.ok()) << res.status().to_message();
    const auto sorted = total_sorted<double>(data);
    EXPECT_EQ(res.value().values[0], sorted[0]);
    EXPECT_EQ(res.value().values[1], sorted[n_num - 1]);
    EXPECT_TRUE(std::isnan(res.value().values[2]));
    EXPECT_TRUE(std::isnan(res.value().values[3]));
    EXPECT_EQ(res.value().nan_count, nans);
}

TEST(InfKeys, InfinitiesSelectAtTheExtremes) {
    simt::Device dev(simt::arch_v100());
    auto data = data::generate<double>(
        {.n = 4096, .dist = data::Distribution::uniform_real, .seed = 51});
    data[100] = -kInf;
    data[200] = -kInf;
    data[300] = kInf;
    auto lo = core::try_sample_select<double>(dev, data, 0, small_cfg());
    auto hi = core::try_sample_select<double>(dev, data, data.size() - 1, small_cfg());
    ASSERT_TRUE(lo.ok() && hi.ok());
    EXPECT_EQ(lo.value().value, -kInf);
    EXPECT_EQ(hi.value().value, kInf);
}

TEST(SignedZero, NegativeZeroEqualsPositiveZero) {
    simt::Device dev(simt::arch_v100());
    // Half the keys are zeros of mixed sign: any rank inside the zero run
    // must answer zero regardless of which representation got selected.
    std::vector<double> data(2048);
    for (std::size_t i = 0; i < data.size(); ++i) {
        if (i < 512) {
            data[i] = -1.0 - static_cast<double>(i);
        } else if (i < 1536) {
            data[i] = (i % 2 == 0) ? -0.0 : 0.0;
        } else {
            data[i] = 1.0 + static_cast<double>(i);
        }
    }
    auto res = core::try_sample_select<double>(dev, data, 1024, small_cfg());
    ASSERT_TRUE(res.ok()) << res.status().to_message();
    EXPECT_EQ(res.value().value, 0.0);

    auto rank = core::try_rank_of<double>(dev, data, -0.0, {});
    ASSERT_TRUE(rank.ok());
    EXPECT_EQ(rank.value().less, 512u);
    EXPECT_EQ(rank.value().equal, 1024u);  // -0.0 == +0.0 in the total order
}

TEST(NanKeys, RankOfNanNeedle) {
    simt::Device dev(simt::arch_v100());
    const auto data = nan_laced(2048, 10, 67);
    const std::size_t nans = core::count_nan_keys(std::span<const double>(data));
    auto res = core::try_rank_of<double>(dev, data, kNan, {});
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.value().less, data.size() - nans);
    EXPECT_EQ(res.value().equal, nans);
}

// ---- guaranteed progress -----------------------------------------------------

TEST(GuaranteedProgress, ForceFallbackSelectsCorrectly) {
    simt::Device dev(simt::arch_v100());
    const auto data = data::generate<double>(
        {.n = 8192, .dist = data::Distribution::uniform_real, .seed = 61});
    auto cfg = small_cfg();
    cfg.force_fallback = true;
    const std::size_t rank = 3000;
    auto res = core::try_sample_select<double>(dev, data, rank, cfg);
    ASSERT_TRUE(res.ok()) << res.status().to_message();
    const auto sorted = total_sorted<double>(data);
    EXPECT_EQ(res.value().value, sorted[rank]);
    EXPECT_GE(res.value().fallback_levels, 1u);
    EXPECT_GE(dev.robustness().fallback_levels, 1u);
}

TEST(GuaranteedProgress, ForceFallbackMultiSelectAndSort) {
    simt::Device dev(simt::arch_v100());
    const auto data = data::generate<double>(
        {.n = 4096, .dist = data::Distribution::normal, .seed = 62});
    auto cfg = small_cfg();
    cfg.force_fallback = true;
    const auto sorted = total_sorted<double>(data);

    const std::vector<std::size_t> ranks{10, 2048, 4000};
    auto multi = core::try_multi_select<double>(dev, data, ranks, cfg);
    ASSERT_TRUE(multi.ok()) << multi.status().to_message();
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        EXPECT_EQ(multi.value().values[i], sorted[ranks[i]]) << i;
    }
    EXPECT_GE(multi.value().fallback_levels, 1u);

    auto sort = core::try_sample_sort<double>(dev, data, cfg);
    ASSERT_TRUE(sort.ok()) << sort.status().to_message();
    EXPECT_EQ(sort.value().sorted, sorted);
    EXPECT_GE(sort.value().fallback_levels, 1u);
}

TEST(GuaranteedProgress, AllEqualInputExitsViaEqualityBucket) {
    simt::Device dev(simt::arch_v100());
    const std::vector<double> data(8192, 42.0);
    auto res = core::try_sample_select<double>(dev, data, 4096, small_cfg());
    ASSERT_TRUE(res.ok()) << res.status().to_message();
    EXPECT_EQ(res.value().value, 42.0);
    EXPECT_TRUE(res.value().equality_exit);

    // Same under forced fallback: the tripartition's equality bucket fires.
    auto cfg = small_cfg();
    cfg.force_fallback = true;
    auto fb = core::try_sample_select<double>(dev, data, 4096, cfg);
    ASSERT_TRUE(fb.ok()) << fb.status().to_message();
    EXPECT_EQ(fb.value().value, 42.0);
}

TEST(GuaranteedProgress, TwoValueAdversarialInput) {
    simt::Device dev(simt::arch_v100());
    std::vector<double> data(8192);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = (i % 2 == 0) ? 1.0 : 2.0;
    for (const std::size_t rank : {std::size_t{0}, std::size_t{4095}, std::size_t{8191}}) {
        auto res = core::try_sample_select<double>(dev, data, rank, small_cfg());
        ASSERT_TRUE(res.ok()) << res.status().to_message();
        EXPECT_EQ(res.value().value, rank < 4096 ? 1.0 : 2.0) << rank;
    }
}

TEST(GuaranteedProgress, DepthCapReturnsTypedError) {
    simt::Device dev(simt::arch_v100());
    const auto data = data::generate<double>(
        {.n = 1 << 16, .dist = data::Distribution::uniform_real, .seed = 63});
    auto cfg = small_cfg();
    cfg.max_levels = 1;  // 64k -> 4k needs two 16-bucket levels; one is not enough
    cfg.force_fallback = true;  // fallback shrinks even slower
    auto res = core::try_sample_select<double>(dev, data, 1000, cfg);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error(), core::SelectError::depth_exceeded);
}

// ---- recovery counters under injected faults ---------------------------------

TEST(FaultRecovery, TransientFaultsAreRetriedAndCounted) {
    simt::Device dev(simt::arch_v100());
    const auto data = data::generate<double>(
        {.n = 4096, .dist = data::Distribution::uniform_real, .seed = 71});
    const auto sorted = total_sorted<double>(data);

    simt::FaultSpec spec;
    spec.seed = 17;
    spec.alloc_rate = 0.02;
    spec.launch_rate = 0.02;
    dev.set_faults(spec);

    std::size_t recovered = 0;
    for (int round = 0; round < 40; ++round) {
        auto res = core::try_sample_select<double>(dev, data, 2000, small_cfg());
        if (res.ok()) {
            EXPECT_EQ(res.value().value, sorted[2000]) << round;
            ++recovered;
        } else {
            EXPECT_TRUE(res.error() == core::SelectError::allocation_failed ||
                        res.error() == core::SelectError::launch_failed)
                << res.status().to_message();
        }
    }
    EXPECT_GT(recovered, 0u);
    EXPECT_GT(dev.robustness().alloc_retries + dev.robustness().launch_retries, 0u)
        << "2% fault rates over 40 selections must have triggered retries";
    EXPECT_GT(dev.fault_counters().alloc_faults + dev.fault_counters().launch_faults, 0u);
}

TEST(FaultRecovery, PermanentBurstSurfacesTypedError) {
    simt::Device dev(simt::arch_v100());
    const auto data = data::generate<double>(
        {.n = 4096, .dist = data::Distribution::uniform_real, .seed = 72});
    simt::FaultSpec spec;
    spec.launch_rate = 1.0;  // every launch fails: unrecoverable
    dev.set_faults(spec);
    auto res = core::try_sample_select<double>(dev, data, 100, small_cfg());
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error(), core::SelectError::launch_failed);

    dev.clear_faults();
    auto healthy = core::try_sample_select<double>(dev, data, 100, small_cfg());
    EXPECT_TRUE(healthy.ok()) << "device must stay usable after exhausted retries";
}

}  // namespace
