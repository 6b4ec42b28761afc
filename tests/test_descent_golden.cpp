// Golden launch sequences of the descent front-ends.  For fixed inputs,
// every launch a front-end issues -- name, grid, block, origin, stream,
// exact counters and simulated duration -- is folded into one FNV-1a hash
// and pinned.  test_event_golden.cpp pins single kernels; this file pins
// whole selections, so a refactor of the descent policy (level step,
// resampling, fallback, base case, rank rebasing) that changes what the
// simulated device executes fails here first.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "baselines/radixselect.hpp"
#include "core/argselect.hpp"
#include "core/multiselect.hpp"
#include "core/sample_select.hpp"
#include "core/sample_sort.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "golden_hash.hpp"
#include "simt/device.hpp"

namespace {

using namespace gpusel;

std::uint64_t launch_sequence_hash(const simt::Device& dev) {
    golden::Fnv1a h;
    for (const simt::KernelProfile& p : dev.profiles()) golden::add_profile(h, p);
    h.add(static_cast<std::uint64_t>(dev.profiles().size()));
    return h.value();
}

/// Runs one front-end call on a fresh device and hashes its launches.
std::uint64_t golden(const std::function<bool(simt::Device&)>& call) {
    simt::Device dev(simt::arch_v100(), golden::device_options());
    EXPECT_TRUE(call(dev));
    return launch_sequence_hash(dev);
}

/// Like golden(), but `call` also folds the answer it got into the hash,
/// so the index-returning front-ends pin their tie-break as well as their
/// launches.
std::uint64_t golden_answer(const std::function<bool(simt::Device&, golden::Fnv1a&)>& call) {
    simt::Device dev(simt::arch_v100(), golden::device_options());
    golden::Fnv1a h;
    EXPECT_TRUE(call(dev, h));
    for (const simt::KernelProfile& p : dev.profiles()) golden::add_profile(h, p);
    h.add(static_cast<std::uint64_t>(dev.profiles().size()));
    return h.value();
}

struct Hashes {
    std::uint64_t select = 0;
    std::uint64_t topk_largest = 0;
    std::uint64_t topk_smallest = 0;
    std::uint64_t multi_select = 0;
    std::uint64_t sample_sort = 0;
};

constexpr std::size_t kTopK = 100;

template <typename T>
Hashes run_all(const std::vector<T>& data, const core::SampleSelectConfig& cfg) {
    const std::size_t n = data.size();
    const std::vector<std::size_t> ranks{0, 100, n / 3, n / 2, n - 1};
    Hashes h;
    h.select = golden(
        [&](simt::Device& dev) { return core::try_sample_select<T>(dev, data, n / 2, cfg).ok(); });
    h.topk_largest = golden(
        [&](simt::Device& dev) { return core::try_topk_largest<T>(dev, data, kTopK, cfg).ok(); });
    h.topk_smallest = golden(
        [&](simt::Device& dev) { return core::try_topk_smallest<T>(dev, data, kTopK, cfg).ok(); });
    h.multi_select = golden(
        [&](simt::Device& dev) { return core::try_multi_select<T>(dev, data, ranks, cfg).ok(); });
    h.sample_sort =
        golden([&](simt::Device& dev) { return core::try_sample_sort<T>(dev, data, cfg).ok(); });
    return h;
}

std::vector<float> uniform_floats() {
    return data::generate<float>(
        {.n = 1u << 16, .dist = data::Distribution::uniform_real, .seed = 1301});
}

std::vector<double> all_equal_doubles() { return std::vector<double>(8192, 2.5); }

TEST(DescentGolden, UniformFloats) {
    const Hashes h = run_all(uniform_floats(), {});
    EXPECT_EQ(h.select, 0x28a15e747c74651eULL);
    EXPECT_EQ(h.topk_largest, 0xac966169cb59f528ULL);
    EXPECT_EQ(h.topk_smallest, 0xa74bf4a846376e1aULL);
    EXPECT_EQ(h.multi_select, 0x707ed4b539e34216ULL);
    EXPECT_EQ(h.sample_sort, 0xc0ff916e9d0cd0d9ULL);
}

TEST(DescentGolden, UniformFloatsForcedFallback) {
    core::SampleSelectConfig cfg;
    cfg.force_fallback = true;
    const Hashes h = run_all(uniform_floats(), cfg);
    EXPECT_EQ(h.select, 0x3e04da62d07f1c33ULL);
    EXPECT_EQ(h.topk_largest, 0x6b9e3411a70fdecdULL);
    EXPECT_EQ(h.topk_smallest, 0xb57efa3f51ce810dULL);
    EXPECT_EQ(h.multi_select, 0x781d41f846fdf8f3ULL);
    EXPECT_EQ(h.sample_sort, 0x34c59242aec0a154ULL);
}

TEST(DescentGolden, AllEqualDoubles) {
    // Every front-end takes the sampled descent and its equality-bucket
    // exit.
    const Hashes h = run_all(all_equal_doubles(), {});
    EXPECT_EQ(h.select, 0xe29131a0a12c8d7dULL);
    EXPECT_EQ(h.topk_largest, 0x7011fc68695ca32bULL);
    EXPECT_EQ(h.topk_smallest, 0x1d1295c50ab153feULL);
    EXPECT_EQ(h.multi_select, 0xe29131a0a12c8d7dULL);
    EXPECT_EQ(h.sample_sort, 0xfebf5263cd38de27ULL);
}

struct ArgPairHashes {
    std::uint64_t argselect = 0;
    std::uint64_t topk_indices = 0;
    std::uint64_t partial_sort = 0;
};

/// The three ArgPair front-ends over `keys`, each answer folded in.
ArgPairHashes run_argpair(const std::vector<float>& keys) {
    const std::size_t n = keys.size();
    std::vector<std::uint32_t> payloads(n);
    std::iota(payloads.begin(), payloads.end(), 7u);
    ArgPairHashes h;
    h.argselect = golden_answer([&](simt::Device& dev, golden::Fnv1a& f) {
        auto r = core::try_argselect(dev, keys, n / 2, {});
        if (!r.ok()) return false;
        f.add(r.value().key);
        f.add(static_cast<std::uint64_t>(r.value().index));
        return true;
    });
    h.topk_indices = golden_answer([&](simt::Device& dev, golden::Fnv1a& f) {
        auto r = core::try_topk_largest_indices(dev, keys, kTopK, {});
        if (!r.ok()) return false;
        for (std::size_t i = 0; i < r.value().values.size(); ++i) {
            f.add(r.value().values[i]);
            f.add(static_cast<std::uint64_t>(r.value().indices[i]));
        }
        return true;
    });
    h.partial_sort = golden_answer([&](simt::Device& dev, golden::Fnv1a& f) {
        auto r = core::try_partial_sort_by_key(dev, keys, payloads, kTopK, {});
        if (!r.ok()) return false;
        for (std::size_t i = 0; i < r.value().keys.size(); ++i) {
            f.add(r.value().keys[i]);
            f.add(static_cast<std::uint64_t>(r.value().payloads[i]));
        }
        return true;
    });
    return h;
}

TEST(DescentGolden, ArgPairFrontEnds) {
    // All-equal keys order by index alone: the tie-break decides every
    // answer and every bucket.
    const ArgPairHashes u = run_argpair(uniform_floats());
    const ArgPairHashes eq = run_argpair(std::vector<float>(8192, 2.5f));
    EXPECT_EQ(u.argselect, 0x4671399cbe570530ULL);
    EXPECT_EQ(u.topk_indices, 0x94748db7f7abfe07ULL);
    EXPECT_EQ(u.partial_sort, 0x1a7d97c74aa72b28ULL);
    EXPECT_EQ(eq.argselect, 0x65e9007b13680502ULL);
    EXPECT_EQ(eq.topk_indices, 0xd745861feaf03fe2ULL);
    EXPECT_EQ(eq.partial_sort, 0x9ded2f0e22d8c4c2ULL);
}

/// One RadixSelect baseline call on a fresh device, answer folded in.
template <typename T>
std::uint64_t radix_baseline_hash(const std::vector<T>& data) {
    return golden_answer([&](simt::Device& dev, golden::Fnv1a& f) {
        const auto r = baselines::radix_select<T>(dev, data, data.size() / 2, {});
        f.add(r.value);
        f.add(static_cast<std::uint64_t>(r.levels));
        return true;
    });
}

TEST(DescentGolden, RadixSelectBaseline) {
    // The Sec. V-D RadixSelect baseline runs the one-digit radix count and
    // filter kernels (core/radix_kernel.hpp): a change to those kernels
    // that moves the baseline's launches, and so its Sec. V-D cells,
    // fails here.
    const auto spec = [](data::Distribution dist) {
        return data::DatasetSpec{.n = 1u << 16, .dist = dist, .seed = 1301};
    };
    EXPECT_EQ(radix_baseline_hash(data::generate<float>(spec(data::Distribution::uniform_real))),
              0x94af1c172e5064eULL);
    EXPECT_EQ(
        radix_baseline_hash(data::generate<float>(spec(data::Distribution::adversarial_cluster))),
        0xedd4f2ecab6b2023ULL);
    EXPECT_EQ(radix_baseline_hash(data::generate<double>(spec(data::Distribution::uniform_real))),
              0x62dd6736adf6fd15ULL);
    EXPECT_EQ(
        radix_baseline_hash(data::generate<double>(spec(data::Distribution::adversarial_cluster))),
        0x44f88d0eb08b1c68ULL);
}

}  // namespace
