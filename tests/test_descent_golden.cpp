// Golden launch sequences of the descent front-ends.  For fixed inputs,
// every launch a front-end issues -- name, grid, block, origin, stream,
// exact counters and simulated duration -- is folded into one FNV-1a hash
// and pinned.  test_event_golden.cpp pins single kernels; this file pins
// whole selections, so a refactor of the descent policy (level step,
// resampling, fallback, base case, rank rebasing) that changes what the
// simulated device executes fails here first.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

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

/// Pins GPUSEL_BACKEND for one scope so planner-routed front-ends take the
/// sampled descent even where the probe would pick radix.
class ForceBackend {
public:
    explicit ForceBackend(const char* name) {
        if (const char* old = std::getenv("GPUSEL_BACKEND")) saved_ = old;
        ::setenv("GPUSEL_BACKEND", name, 1);
    }
    ~ForceBackend() {
        if (saved_.empty()) {
            ::unsetenv("GPUSEL_BACKEND");
        } else {
            ::setenv("GPUSEL_BACKEND", saved_.c_str(), 1);
        }
    }
    ForceBackend(const ForceBackend&) = delete;
    ForceBackend& operator=(const ForceBackend&) = delete;

private:
    std::string saved_;
};

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
    EXPECT_EQ(h.select, 0x2832e8f01c819bf5ULL);
    EXPECT_EQ(h.topk_largest, 0x30ffc9830613cec1ULL);
    EXPECT_EQ(h.topk_smallest, 0x24acb0833ab8dc85ULL);
    EXPECT_EQ(h.multi_select, 0x428c65942ef36eddULL);
    EXPECT_EQ(h.sample_sort, 0xa10cc123aa782e00ULL);
}

TEST(DescentGolden, UniformFloatsForcedFallback) {
    core::SampleSelectConfig cfg;
    cfg.force_fallback = true;
    const Hashes h = run_all(uniform_floats(), cfg);
    EXPECT_EQ(h.select, 0x2eef9ce950b0a468ULL);
    EXPECT_EQ(h.topk_largest, 0x9cb04e20826d785fULL);
    EXPECT_EQ(h.topk_smallest, 0x2416af7ef44f4240ULL);
    EXPECT_EQ(h.multi_select, 0x889d7f9aabdf9f2dULL);
    EXPECT_EQ(h.sample_sort, 0x9690ed571d838b8eULL);
}

TEST(DescentGolden, AllEqualDoubles) {
    const Hashes h = run_all(all_equal_doubles(), {});
    EXPECT_EQ(h.select, 0xcf435b488a02b637ULL);
    EXPECT_EQ(h.topk_largest, 0x7c53106582f72e35ULL);
    EXPECT_EQ(h.topk_smallest, 0xbe1a6db274235e00ULL);
    EXPECT_EQ(h.multi_select, 0x8382c6cfb72ad4cbULL);
    EXPECT_EQ(h.sample_sort, 0x544ac5f54028b2b7ULL);
}

TEST(DescentGolden, AllEqualDoublesSampleBackend) {
    // The probe routes all-equal select and top-k to radix; forcing the
    // sampled descent pins its equality-bucket exit as well.
    const ForceBackend sample("sample");
    const Hashes h = run_all(all_equal_doubles(), {});
    EXPECT_EQ(h.select, 0x8382c6cfb72ad4cbULL);
    EXPECT_EQ(h.topk_largest, 0xe7398f9f136e975fULL);
    EXPECT_EQ(h.topk_smallest, 0xce64f0879ec9d5e4ULL);
}

}  // namespace
