// Tests for batched multi-sequence selection (core/batched_select.hpp).

#include "core/batched_select.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "data/distributions.hpp"
#include "data/rng.hpp"
#include "stats/order_stats.hpp"

namespace {

using namespace gpusel;

struct Batch {
    std::vector<float> flat;
    std::vector<std::size_t> offsets{0};
    std::vector<std::size_t> ranks;

    void add(std::vector<float> seq, std::size_t rank) {
        flat.insert(flat.end(), seq.begin(), seq.end());
        offsets.push_back(flat.size());
        ranks.push_back(rank);
    }
};

Batch random_batch(std::size_t sequences, std::size_t max_len, std::uint64_t seed) {
    data::Xoshiro256 rng(seed);
    Batch b;
    for (std::size_t s = 0; s < sequences; ++s) {
        const std::size_t len = 1 + rng.bounded(max_len);
        std::vector<float> seq(len);
        for (auto& x : seq) x = static_cast<float>(rng.uniform() * 1000.0);
        b.add(std::move(seq), rng.bounded(len));
    }
    return b;
}

void expect_batch_correct(const Batch& b, const core::BatchedSelectResult<float>& res) {
    ASSERT_EQ(res.values.size(), b.ranks.size());
    for (std::size_t s = 0; s < b.ranks.size(); ++s) {
        const auto begin = b.offsets[s];
        const auto len = b.offsets[s + 1] - begin;
        const std::span<const float> seq(b.flat.data() + begin, len);
        ASSERT_EQ(stats::rank_error<float>(seq, res.values[s], b.ranks[s]), 0u)
            << "sequence " << s;
    }
}

TEST(BatchedSelect, SmallBatchOfSmallSequences) {
    simt::Device dev(simt::arch_v100());
    Batch b;
    b.add({3, 1, 2}, 1);        // median -> 2
    b.add({10}, 0);             // singleton
    b.add({5, 5, 5, 5}, 2);     // duplicates
    b.add({9, 8, 7, 6, 5}, 0);  // min
    const auto res = core::try_batched_select<float>(dev, b.flat, b.offsets, b.ranks, {}).value();
    EXPECT_EQ(res.values, (std::vector<float>{2, 10, 5, 5}));
    EXPECT_EQ(res.batched_sequences, 4u);
    EXPECT_EQ(res.recursive_sequences, 0u);
}

TEST(BatchedSelect, SingleLaunchPerStreamForShortSequences) {
    simt::Device dev(simt::arch_v100());
    const auto b = random_batch(100, 1000, 5);
    const auto res = core::try_batched_select<float>(dev, b.flat, b.offsets, b.ranks, {}).value();
    expect_batch_correct(b, res);
    // One fused launch per stream of the fan, nothing else.
    EXPECT_EQ(res.launches, static_cast<std::uint64_t>(res.streams_used));
    EXPECT_EQ(res.batched_sequences, 100u);
}

TEST(BatchedSelect, SingleStreamKeepsOneFusedLaunch) {
    simt::Device dev(simt::arch_v100());
    const auto b = random_batch(100, 1000, 5);
    const auto res = core::try_batched_select<float>(dev, b.flat, b.offsets, b.ranks, {},
                                                 {.streams = 1}).value();
    expect_batch_correct(b, res);
    EXPECT_EQ(res.streams_used, 1);
    EXPECT_EQ(res.launches, 1u);  // all sequences in one batched kernel
    EXPECT_EQ(res.batched_sequences, 100u);
}

TEST(BatchedSelect, MultiStreamMatchesSingleStreamValues) {
    const auto b = random_batch(64, 3000, 21);
    simt::Device serial_dev(simt::arch_v100());
    const auto serial = core::try_batched_select<float>(serial_dev, b.flat, b.offsets, b.ranks, {},
                                                    {.streams = 1}).value();
    simt::Device fan_dev(simt::arch_v100());
    const auto fanned = core::try_batched_select<float>(fan_dev, b.flat, b.offsets, b.ranks, {},
                                                    {.streams = 4}).value();
    EXPECT_EQ(fanned.values, serial.values);
    EXPECT_EQ(fanned.streams_used, 4);
    // Overlap accounting: wall is the slowest lane, serial the sum, so the
    // fan reports at least 1x and at most streams_used x overlap.
    EXPECT_GE(fanned.serial_ns, fanned.wall_ns - 1e-6);
    EXPECT_LE(fanned.serial_ns, 4.0 * fanned.wall_ns + 1e-6);
}

TEST(BatchedSelect, RandomBatchesParameterized) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        simt::Device dev(simt::arch_v100());
        const auto b = random_batch(32, 4096, seed);
        const auto res =
            core::try_batched_select<float>(dev, b.flat, b.offsets, b.ranks, {}).value();
        expect_batch_correct(b, res);
    }
}

TEST(BatchedSelect, LongSequencesFallBackToRecursion) {
    simt::Device dev(simt::arch_v100());
    Batch b;
    b.add({4, 2, 6}, 1);
    const auto big = data::generate<float>(
        {.n = 20000, .dist = data::Distribution::uniform_real, .seed = 7});
    b.add(big, 10000);
    const auto res = core::try_batched_select<float>(dev, b.flat, b.offsets, b.ranks, {}).value();
    expect_batch_correct(b, res);
    EXPECT_EQ(res.batched_sequences, 1u);
    EXPECT_EQ(res.recursive_sequences, 1u);
}

TEST(BatchedSelect, BatchedCheaperThanIndividualSelections) {
    const auto b = random_batch(200, 2048, 11);
    simt::Device batched_dev(simt::arch_v100());
    const auto batched =
        core::try_batched_select<float>(batched_dev, b.flat, b.offsets, b.ranks, {}).value();
    expect_batch_correct(b, batched);

    // Individual one-sequence "batches" pay a launch per sequence.
    simt::Device single_dev(simt::arch_v100());
    double individual = 0;
    for (std::size_t s = 0; s < 200; ++s) {
        const auto begin = b.offsets[s];
        const std::vector<float> seq(b.flat.begin() + static_cast<std::ptrdiff_t>(begin),
                                     b.flat.begin() + static_cast<std::ptrdiff_t>(b.offsets[s + 1]));
        const std::vector<std::size_t> off{0, seq.size()};
        const std::vector<std::size_t> rk{b.ranks[s]};
        individual += core::try_batched_select<float>(single_dev, seq, off, rk, {}).value().sim_ns;
    }
    EXPECT_LT(batched.sim_ns, individual / 10.0);
}

TEST(BatchedSelect, ValidatesInputs) {
    simt::Device dev(simt::arch_v100());
    const std::vector<float> flat{1, 2, 3};
    // offsets not spanning flat
    EXPECT_EQ(core::try_batched_select<float>(dev, flat, std::vector<std::size_t>{0, 2},
                                              std::vector<std::size_t>{0}, {})
                  .error(),
              core::SelectError::invalid_argument);
    // rank out of range
    EXPECT_EQ(core::try_batched_select<float>(dev, flat, std::vector<std::size_t>{0, 3},
                                              std::vector<std::size_t>{3}, {})
                  .error(),
              core::SelectError::rank_out_of_range);
    // empty sequence
    EXPECT_EQ(core::try_batched_select<float>(dev, flat, std::vector<std::size_t>{0, 0, 3},
                                              std::vector<std::size_t>{0, 0}, {})
                  .error(),
              core::SelectError::empty_input);
    // ranks size mismatch
    EXPECT_EQ(core::try_batched_select<float>(dev, flat, std::vector<std::size_t>{0, 3},
                                              std::vector<std::size_t>{0, 1}, {})
                  .error(),
              core::SelectError::invalid_argument);
}

TEST(BatchedSelect, DoublePrecision) {
    simt::Device dev(simt::arch_v100());
    std::vector<double> flat(5000);
    std::iota(flat.begin(), flat.end(), 0.0);
    const std::vector<std::size_t> offsets{0, 2500, 5000};
    const std::vector<std::size_t> ranks{100, 2400};
    const auto res = core::try_batched_select<double>(dev, flat, offsets, ranks, {}).value();
    EXPECT_EQ(res.values[0], 100.0);
    EXPECT_EQ(res.values[1], 2500.0 + 2400.0);
}

}  // namespace
