// Tests for the descent record (core/planner.hpp): the host-side
// distribution probe, the front-ends' logs and tallies with their reason
// strings, and the adversarial matrix -- the descent must return the same
// selected set on the distributions that defeat sampling whether it sorts
// the input outright or samples levels over it.

#include "core/planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "baselines/cpu_reference.hpp"
#include "core/multiselect.hpp"
#include "core/sample_select.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "stats/order_stats.hpp"

namespace {

using namespace gpusel;
// ---- the distribution probe -----------------------------------------------

TEST(Planner, ProbeAllEqual) {
    const std::vector<float> data(8192, 3.5f);
    const auto h = core::probe_distribution<float>(data);
    EXPECT_EQ(h.probe_size, core::kPlannerProbeSize);
    EXPECT_EQ(h.probe_distinct, 1u);
    EXPECT_DOUBLE_EQ(h.dominant_frac, 1.0);
}

TEST(Planner, ProbeAllDistinct) {
    std::vector<float> data(64);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<float>(i);
    const auto h = core::probe_distribution<float>(data);
    EXPECT_EQ(h.probe_size, 64u);
    EXPECT_EQ(h.probe_distinct, 64u);
    EXPECT_DOUBLE_EQ(h.dominant_frac, 1.0 / 64);
}

TEST(Planner, ProbeArgPairLooksAtKeysOnly) {
    // Unique payloads must not hide duplicate keys.
    std::vector<core::ArgPair> pairs(4096);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        pairs[i] = {1.25f, static_cast<std::uint32_t>(i)};
    }
    const auto h = core::probe_distribution<core::ArgPair>(pairs);
    EXPECT_EQ(h.probe_distinct, 1u);
    EXPECT_DOUBLE_EQ(h.dominant_frac, 1.0);
}

TEST(Planner, ProbeSignedZeroCollapses) {
    std::vector<float> data(128);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = i % 2 == 0 ? 0.0f : -0.0f;
    const auto h = core::probe_distribution<float>(data);
    EXPECT_EQ(h.probe_distinct, 1u);
}

// ---- planned front-end integration ---------------------------------------

TEST(Planner, UniformInputKeepsSampledDescent) {
    simt::Device dev(simt::arch_v100());
    const auto data = data::generate<float>(
        {.n = 8192, .dist = data::Distribution::uniform_real, .seed = 17});
    const auto r = core::try_sample_select<float>(dev, data, 1234, {}).value();
    EXPECT_EQ(stats::rank_error<float>(data, r.value, 1234), 0u);
    EXPECT_EQ(dev.robustness().backend_sample, 1u);
    EXPECT_EQ(dev.robustness().backend_bitonic, 0u);
    ASSERT_EQ(dev.planner_log().size(), 1u);
    const auto& ev = dev.planner_log().front();
    EXPECT_EQ(ev.backend, "sample");
    EXPECT_EQ(ev.reason, "distribution-adaptive sampled descent");
    EXPECT_EQ(ev.n, 8192u);
    EXPECT_EQ(ev.k, 1234u);
}

TEST(Planner, SmallInputRoutesToBitonic) {
    simt::Device dev(simt::arch_v100());
    const auto data = data::generate<float>(
        {.n = 512, .dist = data::Distribution::uniform_real, .seed = 9});
    const auto r = core::try_sample_select<float>(dev, data, 100, {}).value();
    EXPECT_EQ(stats::rank_error<float>(data, r.value, 100), 0u);
    EXPECT_EQ(r.levels, 0u);
    EXPECT_EQ(dev.robustness().backend_bitonic, 1u);
    ASSERT_EQ(dev.planner_log().size(), 1u);
    EXPECT_EQ(dev.planner_log().front().reason, "small n: single-block bitonic sort");
}

TEST(Planner, MultiselectRecordsStructuralDecision) {
    simt::Device dev(simt::arch_v100());
    const auto data = data::generate<float>(
        {.n = 4096, .dist = data::Distribution::uniform_real, .seed = 5});
    const std::size_t ranks[] = {10, 100, 1000};
    const auto r = core::try_multi_select<float>(dev, data, ranks, {}).value();
    EXPECT_EQ(r.values.size(), 3u);
    bool found = false;
    for (const auto& ev : dev.planner_log()) {
        if (ev.reason == "multi-rank bucket tree") {
            EXPECT_EQ(ev.backend, "sample");
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Planner, LargeAdversarialInputsRunSampled) {
    // Few-valued input and deep top-k at n = 2^20.  The planner used to
    // send these to a radix digit descent (since deleted), which took
    // 676.96 us (16 values, top-k k = 1000), 1371.93 us (uniform, top-k
    // k = n/4) and 673.98 us (16 values, exact select) on the V100 model;
    // the sampled descent that serves them now must beat each.
    const std::size_t n = std::size_t{1} << 20;
    const auto sixteen = data::generate<float>({.n = n,
                                                .dist = data::Distribution::uniform_distinct,
                                                .distinct_values = 16,
                                                .seed = 42});
    const auto uniform = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 42});
    struct Case {
        const char* name;
        const std::vector<float>& data;
        bool topk;
        std::size_t k;
        double radix_ns;
    };
    const Case cases[] = {{"16 values, top-k 1000", sixteen, true, 1000, 676.96e3},
                          {"uniform, top-k n/4", uniform, true, n / 4, 1371.93e3},
                          {"16 values, select n/2", sixteen, false, n / 2, 673.98e3}};
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        simt::Device dev(simt::arch_v100());
        double sim_ns = 0.0;
        if (c.topk) {
            auto r = core::try_topk_largest<float>(dev, c.data, c.k, {}).value();
            sim_ns = r.sim_ns;
            EXPECT_EQ(r.threshold, baselines::cpu_nth_element<float>(c.data, n - c.k).value);
            std::vector<float> want = c.data;
            std::nth_element(want.begin(), want.begin() + static_cast<std::ptrdiff_t>(n - c.k),
                             want.end());
            want.erase(want.begin(), want.begin() + static_cast<std::ptrdiff_t>(n - c.k));
            std::sort(want.begin(), want.end());
            std::sort(r.elements.begin(), r.elements.end());
            EXPECT_EQ(r.elements, want);
        } else {
            const auto r = core::try_sample_select<float>(dev, c.data, c.k, {}).value();
            sim_ns = r.sim_ns;
            EXPECT_EQ(r.value, baselines::cpu_nth_element<float>(c.data, c.k).value);
        }
        ASSERT_EQ(dev.planner_log().size(), 1u);
        EXPECT_EQ(dev.planner_log().front().backend, "sample");
        EXPECT_LT(sim_ns, c.radix_ns);
    }
}

// ---- adversarial matrix: identical selected sets across descents --------

std::vector<float> adversarial_dataset(const std::string& name, std::size_t n) {
    if (name == "all_equal") return std::vector<float>(n, 5.5f);
    if (name == "two_value") {
        std::vector<float> v(n);
        for (std::size_t i = 0; i < n; ++i) v[i] = (i * 2654435761u) % 3 == 0 ? -1.0f : 4.0f;
        return v;
    }
    if (name == "sorted") {
        return data::generate<float>(
            {.n = n, .dist = data::Distribution::sorted_ascending, .seed = 1});
    }
    if (name == "reverse") {
        return data::generate<float>(
            {.n = n, .dist = data::Distribution::sorted_descending, .seed = 1});
    }
    // Zipf-duplicated values: heavy repetition of the popular ranks.
    return data::generate<float>({.n = n, .dist = data::Distribution::zipf, .seed = 2});
}

TEST(Planner, AdversarialMatrixAllBackendsAgree) {
    const std::size_t n = 2048;
    const char* dists[] = {"all_equal", "two_value", "sorted", "reverse", "zipf"};
    // 4096 sorts the input outright; 1024 (the default) and 64 run sampled
    // levels first, 64 through several.
    const std::size_t base_cases[] = {4096, 1024, 64};

    for (const char* dist : dists) {
        const auto data = adversarial_dataset(dist, n);
        std::vector<float> sorted = data;
        std::sort(sorted.begin(), sorted.end());

        for (const std::size_t k : {std::size_t{1}, n / 2, n - 1}) {
            for (const std::size_t base_case : base_cases) {
                SCOPED_TRACE(std::string(dist) + " k=" + std::to_string(k) +
                             " base_case_size=" + std::to_string(base_case));
                core::SampleSelectConfig cfg;
                cfg.base_case_size = base_case;

                // Rank selection: the value at rank k must be exact.
                simt::Device dev(simt::arch_v100());
                const auto r = core::try_sample_select<float>(dev, data, k, cfg);
                ASSERT_TRUE(r.ok()) << r.status().to_message();
                EXPECT_EQ(r.value().value, sorted[k]);

                // Top-k: the selected multiset must equal the reference
                // top-k slice (identical across descents by transitivity).
                const auto t = core::try_topk_largest<float>(dev, data, k, cfg);
                ASSERT_TRUE(t.ok()) << t.status().to_message();
                std::vector<float> got = t.value().elements;
                ASSERT_EQ(got.size(), k);
                std::sort(got.begin(), got.end());
                for (std::size_t i = 0; i < k; ++i) {
                    ASSERT_EQ(got[i], sorted[n - k + i]) << "slot " << i;
                }
                EXPECT_EQ(t.value().threshold, sorted[n - k]);

                // Each call ran, and recorded, the descent its base case
                // size picks.
                const bool outright = n <= base_case;
                EXPECT_EQ(r.value().levels == 0, outright);
                EXPECT_EQ(dev.robustness().backend_bitonic, outright ? 2u : 0u);
                EXPECT_EQ(dev.robustness().backend_sample, outright ? 0u : 2u);
            }
        }
    }
}

}  // namespace
