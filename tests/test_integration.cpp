// Cross-algorithm integration tests: all selection algorithms must agree
// with each other and with the CPU references on identical datasets, and
// the simulated performance must reproduce the paper's headline
// architectural shapes (Fig. 8).

#include <gtest/gtest.h>

#include "baselines/bucketselect.hpp"
#include "baselines/cpu_reference.hpp"
#include "baselines/quickselect.hpp"
#include "baselines/radixselect.hpp"
#include "core/sample_select.hpp"
#include "data/distributions.hpp"
#include "stats/order_stats.hpp"

namespace {

using namespace gpusel;

class AllAlgorithmsAgree : public ::testing::TestWithParam<data::Distribution> {};

TEST_P(AllAlgorithmsAgree, OnSameDataset) {
    const std::size_t n = 1 << 14;
    const auto data = data::generate<float>({.n = n, .dist = GetParam(), .seed = 61});
    const std::size_t rank = data::random_rank(n, 61);

    const float ref = stats::nth_element_reference(data, rank);
    (void)ref;

    simt::Device d1(simt::arch_v100());
    const auto sample = core::try_sample_select<float>(d1, data, rank, {}).value();
    simt::Device d2(simt::arch_v100());
    const auto quick = baselines::quick_select<float>(d2, data, rank, {});
    simt::Device d3(simt::arch_v100());
    const auto bucket = baselines::bucket_select<float>(d3, data, rank, {});
    simt::Device d4(simt::arch_v100());
    const auto radix = baselines::radix_select<float>(d4, data, rank, {});
    const auto serial =
        baselines::serial_sample_select<float>(data, rank, 256, 1024, 5);
    const auto cpu = baselines::cpu_nth_element<float>(data, rank);

    // All must land inside the target rank's value interval.
    EXPECT_EQ(stats::rank_error<float>(data, sample.value, rank), 0u);
    EXPECT_EQ(stats::rank_error<float>(data, quick.value, rank), 0u);
    EXPECT_EQ(stats::rank_error<float>(data, bucket.value, rank), 0u);
    EXPECT_EQ(stats::rank_error<float>(data, radix.value, rank), 0u);
    EXPECT_EQ(stats::rank_error<float>(data, serial, rank), 0u);
    EXPECT_EQ(stats::rank_error<float>(data, cpu.value, rank), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, AllAlgorithmsAgree,
                         ::testing::ValuesIn(data::all_distributions()),
                         [](const auto& info) { return to_string(info.param); });

// ---- Fig. 8 headline shapes, asserted as inequalities -----------------------

double select_ns(const simt::ArchSpec& arch, simt::AtomicSpace space, std::size_t n) {
    simt::Device dev(arch);
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 67});
    core::SampleSelectConfig cfg;
    cfg.num_buckets = 256;
    cfg.atomic_space = space;
    return core::try_sample_select<float>(dev, data, n / 2, cfg).value().sim_ns;
}

double quick_ns(const simt::ArchSpec& arch, simt::AtomicSpace space, std::size_t n) {
    simt::Device dev(arch);
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 67});
    core::QuickSelectConfig cfg;
    cfg.atomic_space = space;
    return baselines::quick_select<float>(dev, data, n / 2, cfg).sim_ns;
}

TEST(Fig8Shapes, V100SharedBeatsGlobalByALot) {
    // Sec. V-D: sample-s more than 10x faster than sample-g on the V100.
    // The ratio is asymptotic (fixed launch/reduce costs compress it at
    // small n); assert a strong gap at the largest size the test budget
    // allows.
    const std::size_t n = 1 << 22;
    const double shared = select_ns(simt::arch_v100(), simt::AtomicSpace::shared, n);
    const double global = select_ns(simt::arch_v100(), simt::AtomicSpace::global, n);
    EXPECT_GT(global, 6.0 * shared);
}

TEST(Fig8Shapes, K20GlobalBeatsShared) {
    const std::size_t n = 1 << 20;
    const double shared = select_ns(simt::arch_k20xm(), simt::AtomicSpace::shared, n);
    const double global = select_ns(simt::arch_k20xm(), simt::AtomicSpace::global, n);
    EXPECT_GT(shared, global);
}

TEST(Fig8Shapes, V100SampleSelectBeatsQuickSelect) {
    const std::size_t n = 1 << 22;
    const double sample = select_ns(simt::arch_v100(), simt::AtomicSpace::shared, n);
    const double quick = quick_ns(simt::arch_v100(), simt::AtomicSpace::shared, n);
    // "more than twice faster on the V100" holds asymptotically; require a
    // clear win at this size (the bench sweeps show the full-factor gap).
    EXPECT_GT(quick, 1.5 * sample);
}

TEST(Fig8Shapes, ThroughputGrowsWithN) {
    const double small = select_ns(simt::arch_v100(), simt::AtomicSpace::shared, 1 << 14);
    const double large = select_ns(simt::arch_v100(), simt::AtomicSpace::shared, 1 << 20);
    const double tp_small = static_cast<double>(1 << 14) / small;
    const double tp_large = static_cast<double>(1 << 20) / large;
    EXPECT_GT(tp_large, 2.0 * tp_small);  // launch-latency-bound at small n
}

TEST(Fig8Shapes, DoublePrecisionSampleSelectNearSinglePrecision) {
    // Sec. V-D: SampleSelect's throughput in double precision is only
    // slightly below single precision (atomics on 32-bit counters are the
    // bottleneck), while QuickSelect degrades more (memory-bound).
    const std::size_t n = 1 << 20;
    simt::Device df(simt::arch_v100());
    simt::Device dd(simt::arch_v100());
    const auto fdata = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 71});
    const auto ddata = data::generate<double>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 71});
    core::SampleSelectConfig cfg;
    const double tf = core::try_sample_select<float>(df, fdata, n / 2, cfg).value().sim_ns;
    const double td = core::try_sample_select<double>(dd, ddata, n / 2, cfg).value().sim_ns;
    EXPECT_LT(td, 1.5 * tf);
}

TEST(RobustnessShape, SampleSelectStableOnAdversarialBucketSelectNot) {
    const std::size_t n = 1 << 16;
    const auto uniform = data::generate<double>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 73});
    const auto advers = data::generate<double>(
        {.n = n, .dist = data::Distribution::adversarial_cluster, .seed = 73});

    auto sample_time = [&](const std::vector<double>& d) {
        simt::Device dev(simt::arch_v100());
        return core::try_sample_select<double>(dev, d, n / 2, {}).value().sim_ns;
    };
    auto bucket_time = [&](const std::vector<double>& d) {
        simt::Device dev(simt::arch_v100());
        return baselines::bucket_select<double>(dev, d, n / 2, {}).sim_ns;
    };
    const double s_ratio = sample_time(advers) / sample_time(uniform);
    const double b_ratio = bucket_time(advers) / bucket_time(uniform);
    // SampleSelect is comparison-based: insensitive to the value
    // distribution.  BucketSelect degrades by construction.
    EXPECT_LT(s_ratio, 1.6);
    EXPECT_GT(b_ratio, 1.5);
    EXPECT_GT(b_ratio, s_ratio);
}

TEST(SerialReference, AgreesWithDeviceImplementation) {
    const std::size_t n = 1 << 13;
    for (std::size_t d : {std::size_t{1}, std::size_t{16}, std::size_t{0}}) {
        const auto data = data::generate<float>({.n = n,
                                                 .dist = data::Distribution::uniform_distinct,
                                                 .distinct_values = d,
                                                 .seed = 79});
        const std::size_t rank = data::random_rank(n, d + 1);
        simt::Device dev(simt::arch_v100());
        const auto device = core::try_sample_select<float>(dev, data, rank, {}).value();
        const auto serial = baselines::serial_sample_select<float>(data, rank, 64, 512, 3);
        EXPECT_EQ(stats::rank_error<float>(data, device.value, rank), 0u);
        EXPECT_EQ(stats::rank_error<float>(data, serial, rank), 0u);
    }
}

}  // namespace
