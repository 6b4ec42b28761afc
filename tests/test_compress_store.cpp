// Tests for the masked compress-store engines (simt/simd.hpp) and the
// argselect front-ends built on them (core/argselect.hpp).
//
// The compress-store tiers are part of the simulator's bit-exactness
// contract: every vector tier must pack exactly the same bytes to exactly
// the same slots as the scalar reference, including NaN payload bits and
// signed zeros (the engines move elements through integer registers, so
// no FP unit may quieten or canonicalize anything).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "baselines/cpu_reference.hpp"
#include "core/argselect.hpp"
#include "core/float_order.hpp"
#include "core/key_payload.hpp"
#include "simt/device.hpp"
#include "simt/simd.hpp"

namespace {

using namespace gpusel;
using core::ArgPair;
using simt::simd::Level;

class CompressLevels : public ::testing::TestWithParam<Level> {
protected:
    void SetUp() override {
        simt::simd::set_level(GetParam());
        const bool supported = simt::simd::active_level() == GetParam();
        simt::simd::set_enabled(true);
        if (!supported) {
            GTEST_SKIP() << "tier " << simt::simd::level_name(GetParam())
                         << " not available in this build/host";
        }
    }
    void TearDown() override { simt::simd::set_enabled(true); }
};

/// Runs compress_store at `lvl` and at the scalar tier on identical inputs
/// and requires byte-identical outputs (including untouched sentinel bytes
/// past the written run).
template <typename T>
void check_compress(Level lvl, const std::vector<T>& src, std::uint32_t mask, int lanes) {
    std::vector<T> got(src.size() + 4);
    std::vector<T> ref(src.size() + 4);
    std::memset(got.data(), 0xAB, got.size() * sizeof(T));
    std::memset(ref.data(), 0xAB, ref.size() * sizeof(T));

    simt::simd::set_level(lvl);
    const int n_got = simt::simd::compress_store(src.data(), mask, lanes, got.data());
    simt::simd::set_level(Level::scalar);
    const int n_ref = simt::simd::compress_store(src.data(), mask, lanes, ref.data());
    simt::simd::set_enabled(true);

    ASSERT_EQ(n_got, n_ref) << "mask=" << mask << " lanes=" << lanes;
    ASSERT_EQ(std::memcmp(got.data(), ref.data(), got.size() * sizeof(T)), 0)
        << "mask=" << mask << " lanes=" << lanes;
}

template <typename T>
std::vector<T> pattern_values(int lanes, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<T> v(static_cast<std::size_t>(lanes));
    for (auto& x : v) {
        // Fill through memcpy so float lanes get arbitrary payload bits
        // (NaNs with random payloads included) -- the engines must move
        // them verbatim.
        const std::uint64_t bits = rng();
        std::memcpy(&x, &bits, sizeof(T));
    }
    return v;
}

TEST_P(CompressLevels, Exhaustive8LaneMasks4Byte) {
    const auto src = pattern_values<float>(8, 11);
    for (std::uint32_t mask = 0; mask < 256; ++mask) {
        check_compress<float>(GetParam(), src, mask, 8);
    }
}

TEST_P(CompressLevels, Exhaustive8LaneMasks8Byte) {
    const auto srcd = pattern_values<double>(8, 13);
    const auto srcp = pattern_values<ArgPair>(8, 17);
    for (std::uint32_t mask = 0; mask < 256; ++mask) {
        check_compress<double>(GetParam(), srcd, mask, 8);
        check_compress<ArgPair>(GetParam(), srcp, mask, 8);
    }
}

TEST_P(CompressLevels, Randomized16And32LaneMasks) {
    std::mt19937 rng(23);
    for (int lanes : {16, 32}) {
        const auto srcf = pattern_values<float>(lanes, 29u + static_cast<unsigned>(lanes));
        const auto srcp = pattern_values<ArgPair>(lanes, 31u + static_cast<unsigned>(lanes));
        for (int trial = 0; trial < 500; ++trial) {
            const auto mask = static_cast<std::uint32_t>(rng());
            check_compress<float>(GetParam(), srcf, mask, lanes);
            check_compress<ArgPair>(GetParam(), srcp, mask, lanes);
        }
        // Edge masks: empty, full, single lane, alternating.
        for (std::uint32_t mask : {0u, ~0u, 1u, 0x80000000u, 0x55555555u, 0xAAAAAAAAu}) {
            check_compress<float>(GetParam(), srcf, mask, lanes);
            check_compress<ArgPair>(GetParam(), srcp, mask, lanes);
        }
    }
}

TEST_P(CompressLevels, PartialTileLanes) {
    // Odd lane counts (tail tiles) with mask bits set beyond `lanes`,
    // which the engines must ignore.
    const auto src = pattern_values<float>(32, 37);
    std::mt19937 rng(41);
    for (int lanes : {1, 3, 5, 7, 9, 15, 17, 31}) {
        for (int trial = 0; trial < 64; ++trial) {
            check_compress<float>(GetParam(), src, static_cast<std::uint32_t>(rng()), lanes);
        }
    }
}

TEST_P(CompressLevels, ReverseMatchesForwardDefinition) {
    const auto src = pattern_values<double>(32, 43);
    std::mt19937 rng(47);
    for (int trial = 0; trial < 200; ++trial) {
        const auto mask = static_cast<std::uint32_t>(rng());
        const int lanes = 32;
        std::vector<double> fwd(32);
        const int n = simt::simd::compress_store(src.data(), mask, lanes, fwd.data());
        std::vector<double> rev(64, -7.0);
        const int m = simt::simd::compress_store_reverse(src.data(), mask, lanes, rev.data() + 40);
        ASSERT_EQ(m, n);
        for (int i = 0; i < n; ++i) {
            // Element i of the forward run lands i slots below dst_hi.
            EXPECT_EQ(rev[static_cast<std::size_t>(40 - i)], fwd[static_cast<std::size_t>(i)]);
        }
    }
}

TEST_P(CompressLevels, ByteMasksMatchScalar) {
    std::mt19937 rng(53);
    std::vector<std::uint8_t> v(32);
    for (int trial = 0; trial < 300; ++trial) {
        for (auto& b : v) b = static_cast<std::uint8_t>(rng() % 8);
        const auto x = static_cast<std::uint8_t>(rng() % 8);
        for (int lanes : {32, 17, 8, 1}) {
            simt::simd::set_level(GetParam());
            const std::uint32_t eq = simt::simd::byte_eq_mask(v.data(), x, lanes);
            const std::uint32_t gt = simt::simd::byte_gt_mask(v.data(), x, lanes);
            simt::simd::set_level(Level::scalar);
            EXPECT_EQ(eq, simt::simd::byte_eq_mask(v.data(), x, lanes));
            EXPECT_EQ(gt, simt::simd::byte_gt_mask(v.data(), x, lanes));
            simt::simd::set_enabled(true);
        }
    }
}

TEST_P(CompressLevels, CmpGtMaskMatchesScalarWithSpecials) {
    std::mt19937 rng(59);
    std::uniform_real_distribution<float> dist(-4.0f, 4.0f);
    std::vector<float> v(32);
    for (int trial = 0; trial < 300; ++trial) {
        for (auto& x : v) x = dist(rng);
        v[1] = std::numeric_limits<float>::quiet_NaN();
        v[3] = std::numeric_limits<float>::infinity();
        v[5] = -std::numeric_limits<float>::infinity();
        v[6] = -0.0f;
        v[7] = 0.0f;
        for (const float pivot : {0.0f, -0.0f, 1.5f, std::numeric_limits<float>::infinity(),
                                  std::numeric_limits<float>::quiet_NaN()}) {
            for (int lanes : {32, 19, 8}) {
                simt::simd::set_level(GetParam());
                const std::uint32_t m = simt::simd::cmp_gt_mask(v.data(), pivot, lanes);
                simt::simd::set_level(Level::scalar);
                EXPECT_EQ(m, simt::simd::cmp_gt_mask(v.data(), pivot, lanes));
                simt::simd::set_enabled(true);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Tiers, CompressLevels,
                         ::testing::Values(Level::scalar, Level::avx2),
                         [](const ::testing::TestParamInfo<Level>& pi) {
                             return simt::simd::level_name(pi.param);
                         });

// ===========================================================================
// argselect front-ends vs the CPU reference.
// ===========================================================================

/// The expected (key, index) pair for `rank` under the index stability
/// policy: std::nth_element over (key total order, then index).
core::ArgSelectResult reference_argselect(const std::vector<float>& keys, std::size_t rank) {
    std::vector<ArgPair> pairs(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        pairs[i] = {keys[i], static_cast<std::uint32_t>(i)};
    }
    std::nth_element(pairs.begin(), pairs.begin() + static_cast<std::ptrdiff_t>(rank),
                     pairs.end(),
                     [](ArgPair a, ArgPair b) { return core::total_less(a, b); });
    core::ArgSelectResult r;
    r.key = pairs[rank].key;
    r.index = pairs[rank].payload;
    return r;
}

void expect_argselect_matches(const std::vector<float>& keys, std::size_t rank) {
    simt::Device dev(simt::arch_v100());
    const auto got = core::try_argselect(dev, keys, rank, {}).value();
    const auto want = reference_argselect(keys, rank);
    if (std::isnan(want.key)) {
        EXPECT_TRUE(std::isnan(got.key)) << "rank=" << rank;
    } else {
        EXPECT_EQ(got.key, want.key) << "rank=" << rank;
    }
    EXPECT_EQ(got.index, want.index) << "rank=" << rank;
    // The returned pair is always self-consistent with the input.
    if (!std::isnan(want.key)) {
        EXPECT_EQ(keys[got.index], got.key);
    } else {
        EXPECT_TRUE(std::isnan(keys[got.index]));
    }
}

TEST(ArgSelect, DuplicateKeysAreIndexStable) {
    // Heavy duplication: every selected rank must resolve ties by the
    // original position, exactly like nth_element over (key, index).
    std::mt19937 rng(61);
    std::vector<float> keys(4096);
    for (auto& k : keys) k = static_cast<float>(rng() % 7);
    for (const std::size_t rank : {std::size_t{0}, keys.size() / 3, keys.size() / 2,
                                   keys.size() - 1}) {
        expect_argselect_matches(keys, rank);
    }
}

TEST(ArgSelect, AllEqualKeys) {
    const std::vector<float> keys(2048, 3.25f);
    for (const std::size_t rank : {std::size_t{0}, std::size_t{1000}, keys.size() - 1}) {
        expect_argselect_matches(keys, rank);  // index must equal rank exactly
        simt::Device dev(simt::arch_v100());
        EXPECT_EQ(core::try_argselect(dev, keys, rank, {}).value().index, rank);
    }
}

TEST(ArgSelect, SpecialValuesAndNanTail) {
    std::mt19937 rng(67);
    std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
    std::vector<float> keys(1024);
    for (auto& k : keys) k = dist(rng);
    keys[10] = std::numeric_limits<float>::quiet_NaN();
    keys[500] = std::numeric_limits<float>::quiet_NaN();
    keys[900] = std::numeric_limits<float>::quiet_NaN();
    keys[20] = -0.0f;
    keys[21] = 0.0f;
    keys[30] = std::numeric_limits<float>::infinity();
    keys[31] = -std::numeric_limits<float>::infinity();
    for (std::size_t rank = 0; rank < keys.size(); rank += 97) {
        expect_argselect_matches(keys, rank);
    }
    // The three NaN-tail ranks answer the NaN indices in ascending order.
    simt::Device dev(simt::arch_v100());
    EXPECT_EQ(core::try_argselect(dev, keys, 1021, {}).value().index, 10u);
    EXPECT_EQ(core::try_argselect(dev, keys, 1022, {}).value().index, 500u);
    EXPECT_EQ(core::try_argselect(dev, keys, 1023, {}).value().index, 900u);
}

TEST(ArgSelect, MatchesCpuReferenceOnPairs) {
    // Cross-check the device pipeline against the serial CPU reference
    // running on the same ArgPair element type.
    std::mt19937 rng(71);
    std::vector<float> keys(8192);
    for (auto& k : keys) k = static_cast<float>(rng() % 100);
    std::vector<ArgPair> pairs(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        pairs[i] = {keys[i], static_cast<std::uint32_t>(i)};
    }
    simt::Device dev(simt::arch_v100());
    for (const std::size_t rank : {std::size_t{17}, keys.size() / 2, keys.size() - 2}) {
        const auto got = core::try_argselect(dev, keys, rank, {}).value();
        const auto ref = baselines::cpu_nth_element<ArgPair>(pairs, rank);
        EXPECT_EQ(got.key, ref.value.key) << "rank=" << rank;
        EXPECT_EQ(got.index, ref.value.payload) << "rank=" << rank;
    }
}

TEST(ArgSelect, RejectPolicyAndRankRange) {
    simt::Device dev(simt::arch_v100());
    std::vector<float> keys{1.0f, std::numeric_limits<float>::quiet_NaN(), 3.0f};
    core::SampleSelectConfig cfg;
    cfg.nan_policy = core::NanPolicy::reject;
    EXPECT_EQ(core::try_argselect(dev, keys, 0, cfg).status().code,
              core::SelectError::nan_keys_rejected);
    EXPECT_EQ(core::try_argselect(dev, keys, 3, {}).status().code,
              core::SelectError::rank_out_of_range);
}

TEST(ArgTopK, SortedDescendingWithStableIndices) {
    std::mt19937 rng(73);
    std::vector<float> keys(4096);
    for (auto& k : keys) k = static_cast<float>(rng() % 50);
    simt::Device dev(simt::arch_v100());
    for (const std::size_t k : {std::size_t{1}, std::size_t{64}, std::size_t{1000},
                                keys.size()}) {
        const auto res = core::try_topk_largest_indices(dev, keys, k, {}).value();
        ASSERT_EQ(res.values.size(), k);
        ASSERT_EQ(res.indices.size(), k);

        // Reference: full sort of (negated key, index) pairs.
        std::vector<ArgPair> pairs(keys.size());
        for (std::size_t i = 0; i < keys.size(); ++i) {
            pairs[i] = {-keys[i], static_cast<std::uint32_t>(i)};
        }
        std::sort(pairs.begin(), pairs.end(),
                  [](ArgPair a, ArgPair b) { return core::total_less(a, b); });
        for (std::size_t i = 0; i < k; ++i) {
            EXPECT_EQ(res.values[i], -pairs[i].key) << "i=" << i << " k=" << k;
            EXPECT_EQ(res.indices[i], pairs[i].payload) << "i=" << i << " k=" << k;
            EXPECT_EQ(keys[res.indices[i]], res.values[i]);
        }
        EXPECT_EQ(res.threshold, res.values.back());
    }
}

TEST(ArgTopK, NanKeysClaimTopSlotsFirst) {
    std::vector<float> keys{2.0f, std::numeric_limits<float>::quiet_NaN(), 1.0f,
                            std::numeric_limits<float>::quiet_NaN(), 5.0f};
    simt::Device dev(simt::arch_v100());
    const auto res = core::try_topk_largest_indices(dev, keys, 3, {}).value();
    ASSERT_EQ(res.values.size(), 3u);
    EXPECT_TRUE(std::isnan(res.values[0]));
    EXPECT_TRUE(std::isnan(res.values[1]));
    EXPECT_EQ(res.indices[0], 1u);  // NaNs in ascending index order
    EXPECT_EQ(res.indices[1], 3u);
    EXPECT_EQ(res.values[2], 5.0f);
    EXPECT_EQ(res.indices[2], 4u);
    EXPECT_EQ(res.nan_count, 2u);
}

TEST(PartialSortByKey, PrefixMatchesStableSort) {
    std::mt19937 rng(79);
    const std::size_t n = 6000;
    std::vector<float> keys(n);
    std::vector<std::uint32_t> payloads(n);
    for (std::size_t i = 0; i < n; ++i) {
        keys[i] = static_cast<float>(rng() % 40);
        payloads[i] = static_cast<std::uint32_t>(1000000 + i);  // distinct marker payloads
    }
    simt::Device dev(simt::arch_v100());
    for (const std::size_t k : {std::size_t{1}, std::size_t{100}, std::size_t{5000}, n}) {
        const auto res = core::try_partial_sort_by_key(dev, keys, payloads, k, {}).value();
        ASSERT_EQ(res.keys.size(), k);
        ASSERT_EQ(res.payloads.size(), k);

        // Reference: stable sort by key carries payloads in input order on
        // ties -- exactly the (key, index) pair order.
        std::vector<std::size_t> order(n);
        for (std::size_t i = 0; i < n; ++i) order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
        for (std::size_t i = 0; i < k; ++i) {
            EXPECT_EQ(res.keys[i], keys[order[i]]) << "i=" << i << " k=" << k;
            EXPECT_EQ(res.payloads[i], payloads[order[i]]) << "i=" << i << " k=" << k;
        }
    }
}

TEST(PartialSortByKey, NanTailAndDegenerate) {
    std::vector<float> keys{3.0f, std::numeric_limits<float>::quiet_NaN(), -0.0f, 0.0f,
                            std::numeric_limits<float>::infinity()};
    std::vector<std::uint32_t> payloads{10, 11, 12, 13, 14};
    simt::Device dev(simt::arch_v100());
    const auto res = core::try_partial_sort_by_key(dev, keys, payloads, keys.size(), {}).value();
    ASSERT_EQ(res.keys.size(), keys.size());
    // -0.0 and +0.0 tie on the key and resolve by original index.
    EXPECT_EQ(res.payloads[0], 12u);
    EXPECT_EQ(res.payloads[1], 13u);
    EXPECT_EQ(res.keys[2], 3.0f);
    EXPECT_EQ(res.payloads[2], 10u);
    EXPECT_EQ(res.keys[3], std::numeric_limits<float>::infinity());
    EXPECT_TRUE(std::isnan(res.keys[4]));  // NaN ranks above +inf
    EXPECT_EQ(res.payloads[4], 11u);
    EXPECT_EQ(res.nan_count, 1u);

    EXPECT_EQ(core::try_partial_sort_by_key(dev, keys, payloads, 0, {}).status().code,
              core::SelectError::rank_out_of_range);
    EXPECT_EQ(
        core::try_partial_sort_by_key(dev, keys, std::vector<std::uint32_t>(3), 2, {})
            .status()
            .code,
        core::SelectError::invalid_argument);
}

}  // namespace
