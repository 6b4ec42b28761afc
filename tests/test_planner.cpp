// Tests for the adaptive backend planner (core/planner.hpp): the pure
// decision table and its golden reason strings, the host-side distribution
// probe, the GPUSEL_BACKEND override (parsing, feasibility fallthrough,
// RobustnessCounters tallies), sampler-thrash feedback, and the
// cross-backend adversarial matrix -- every backend must return the same
// selected set on the distributions that defeat sampling.

#include "core/planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/multiselect.hpp"
#include "core/sample_select.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "stats/order_stats.hpp"

namespace {

using namespace gpusel;
using core::BackendKind;
using core::DistributionHints;
using core::PlanQuery;

/// Sets (or, with nullptr, unsets) an environment variable for the test's
/// scope and restores the previous state on destruction.
class ScopedEnv {
public:
    ScopedEnv(const char* name, const char* value) : name_(name) {
        if (const char* old = std::getenv(name)) {
            had_old_ = true;
            old_ = old;
        }
        if (value != nullptr) {
            ::setenv(name, value, /*overwrite=*/1);
        } else {
            ::unsetenv(name);
        }
    }
    ~ScopedEnv() {
        if (had_old_) {
            ::setenv(name_, old_.c_str(), 1);
        } else {
            ::unsetenv(name_);
        }
    }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

private:
    const char* name_;
    bool had_old_ = false;
    std::string old_;
};

// ---- parsing --------------------------------------------------------------

TEST(Planner, ParseBackendNames) {
    EXPECT_EQ(core::parse_backend("sample"), BackendKind::sample);
    EXPECT_EQ(core::parse_backend("radix"), BackendKind::radix);
    EXPECT_EQ(core::parse_backend("bitonic"), BackendKind::bitonic);
    EXPECT_EQ(core::parse_backend("auto"), std::nullopt);
    EXPECT_EQ(core::parse_backend(""), std::nullopt);
    EXPECT_EQ(core::parse_backend("quantum"), std::nullopt);
}

TEST(Planner, BackendNamesAreStable) {
    EXPECT_STREQ(core::backend_name(BackendKind::sample), "sample");
    EXPECT_STREQ(core::backend_name(BackendKind::radix), "radix");
    EXPECT_STREQ(core::backend_name(BackendKind::bitonic), "bitonic");
}

// ---- the pure decision table (golden reason strings) ----------------------

TEST(Planner, DecisionTableGolden) {
    const DistributionHints flat{.dominant_frac = 1.0 / 64, .probe_distinct = 64,
                                 .probe_size = 64};
    PlanQuery q;
    q.n = 1 << 20;
    q.k = 1 << 19;
    q.base_case_size = 1024;

    // 0. env override (feasible).
    auto d = core::plan(q, flat, BackendKind::radix);
    EXPECT_EQ(d.backend, BackendKind::radix);
    EXPECT_STREQ(d.reason, "GPUSEL_BACKEND override");
    EXPECT_TRUE(d.env_forced);

    // 0b. infeasible override falls through to the automatic rules.
    d = core::plan(q, flat, BackendKind::bitonic);  // n >> sort capacity
    EXPECT_EQ(d.backend, BackendKind::sample);
    EXPECT_FALSE(d.env_forced);

    // 1. multi-rank trees only exist in the sample machinery.
    PlanQuery multi = q;
    multi.multi = true;
    d = core::plan(multi, flat, std::nullopt);
    EXPECT_EQ(d.backend, BackendKind::sample);
    EXPECT_STREQ(d.reason, "multi-rank bucket tree");
    d = core::plan(multi, flat, BackendKind::radix);  // infeasible force
    EXPECT_EQ(d.backend, BackendKind::sample);
    EXPECT_FALSE(d.env_forced);

    // 2. small n.
    PlanQuery small = q;
    small.n = 600;
    d = core::plan(small, flat, std::nullopt);
    EXPECT_EQ(d.backend, BackendKind::bitonic);
    EXPECT_STREQ(d.reason, "small n: single-block bitonic sort");

    // 3. duplicate-heavy probe.
    const DistributionHints dup{.dominant_frac = 0.5, .probe_distinct = 3, .probe_size = 64};
    d = core::plan(q, dup, std::nullopt);
    EXPECT_EQ(d.backend, BackendKind::radix);
    EXPECT_STREQ(d.reason, "duplicate-heavy probe");

    // 4. low distinct-value probe (dominant below the duplicate cut).
    const DistributionHints lowd{.dominant_frac = 0.125, .probe_distinct = 8, .probe_size = 64};
    d = core::plan(q, lowd, std::nullopt);
    EXPECT_EQ(d.backend, BackendKind::radix);
    EXPECT_STREQ(d.reason, "low distinct-value probe");

    // 5. sampler-thrash feedback.
    PlanQuery thrash = q;
    thrash.thrash_delta = 2;
    d = core::plan(thrash, flat, std::nullopt);
    EXPECT_EQ(d.backend, BackendKind::radix);
    EXPECT_STREQ(d.reason, "sampler thrash feedback");

    // 6. deep top-k.
    PlanQuery deep = q;
    deep.topk = true;
    deep.k = q.n / 4;
    d = core::plan(deep, flat, std::nullopt);
    EXPECT_EQ(d.backend, BackendKind::radix);
    EXPECT_STREQ(d.reason, "deep top-k (k >= n/4)");
    deep.k = q.n / 8;  // shallow top-k stays with the sampler
    d = core::plan(deep, flat, std::nullopt);
    EXPECT_EQ(d.backend, BackendKind::sample);

    // 7. default.
    d = core::plan(q, flat, std::nullopt);
    EXPECT_EQ(d.backend, BackendKind::sample);
    EXPECT_STREQ(d.reason, "distribution-adaptive sampled descent");
}

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

TEST(Planner, AllEqualInputRoutesToRadix) {
    ScopedEnv env("GPUSEL_BACKEND", nullptr);
    simt::Device dev(simt::arch_v100());
    const std::vector<float> data(8192, 7.0f);
    const auto r = core::try_sample_select<float>(dev, data, 4096, {}).value();
    EXPECT_EQ(r.value, 7.0f);
    EXPECT_TRUE(r.equality_exit);
    EXPECT_EQ(dev.robustness().backend_radix, 1u);
    EXPECT_EQ(dev.robustness().backend_sample, 0u);
    EXPECT_EQ(dev.robustness().backend_env_overrides, 0u);
    ASSERT_EQ(dev.planner_log().size(), 1u);
    const auto& ev = dev.planner_log().front();
    EXPECT_EQ(ev.backend, "radix");
    EXPECT_EQ(ev.reason, "duplicate-heavy probe");
    EXPECT_EQ(ev.n, 8192u);
    EXPECT_EQ(ev.k, 4096u);
    EXPECT_FALSE(ev.env_forced);
}

TEST(Planner, HeavyDuplicateInputRoutesToRadix) {
    ScopedEnv env("GPUSEL_BACKEND", nullptr);
    simt::Device dev(simt::arch_v100());
    const auto data = data::generate<float>({.n = 8192,
                                             .dist = data::Distribution::uniform_distinct,
                                             .distinct_values = 2,
                                             .seed = 3});
    const auto r = core::try_sample_select<float>(dev, data, 4096, {}).value();
    EXPECT_EQ(stats::rank_error<float>(data, r.value, 4096), 0u);
    EXPECT_EQ(dev.robustness().backend_radix, 1u);
    ASSERT_FALSE(dev.planner_log().empty());
    EXPECT_EQ(dev.planner_log().front().backend, "radix");
}

TEST(Planner, UniformInputKeepsSampledDescent) {
    ScopedEnv env("GPUSEL_BACKEND", nullptr);
    simt::Device dev(simt::arch_v100());
    const auto data = data::generate<float>(
        {.n = 8192, .dist = data::Distribution::uniform_real, .seed = 17});
    const auto r = core::try_sample_select<float>(dev, data, 1234, {}).value();
    EXPECT_EQ(stats::rank_error<float>(data, r.value, 1234), 0u);
    EXPECT_EQ(dev.robustness().backend_sample, 1u);
    EXPECT_EQ(dev.robustness().backend_radix, 0u);
    ASSERT_EQ(dev.planner_log().size(), 1u);
    EXPECT_EQ(dev.planner_log().front().reason, "distribution-adaptive sampled descent");
}

TEST(Planner, SmallInputRoutesToBitonic) {
    ScopedEnv env("GPUSEL_BACKEND", nullptr);
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

TEST(Planner, DeepTopKRoutesToRadix) {
    ScopedEnv env("GPUSEL_BACKEND", nullptr);
    simt::Device dev(simt::arch_v100());
    const auto data = data::generate<float>(
        {.n = 8192, .dist = data::Distribution::uniform_real, .seed = 29});
    const auto r = core::try_topk_largest<float>(dev, data, 4096, {}).value();
    EXPECT_EQ(r.elements.size(), 4096u);
    EXPECT_EQ(dev.robustness().backend_radix, 1u);
    ASSERT_EQ(dev.planner_log().size(), 1u);
    EXPECT_EQ(dev.planner_log().front().reason, "deep top-k (k >= n/4)");

    // Shallow top-k on the same distribution stays with the sampler.
    dev.clear_planner_log();
    const auto r2 = core::try_topk_largest<float>(dev, data, 10, {}).value();
    EXPECT_EQ(r2.elements.size(), 10u);
    EXPECT_EQ(dev.robustness().backend_sample, 1u);
}

TEST(Planner, MultiselectRecordsStructuralDecision) {
    ScopedEnv env("GPUSEL_BACKEND", nullptr);
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

TEST(Planner, ThrashFeedbackSwitchesToRadixOnce) {
    ScopedEnv env("GPUSEL_BACKEND", nullptr);
    simt::Device dev(simt::arch_v100());
    const auto data = data::generate<float>(
        {.n = 8192, .dist = data::Distribution::uniform_real, .seed = 31});
    // Simulate a sampler that just thrashed on this device: the feedback
    // rule must reroute the next selection to radix even though the probe
    // sees a healthy distribution.
    dev.robustness().resamples += 5;
    const auto r1 = core::try_sample_select<float>(dev, data, 4000, {}).value();
    EXPECT_EQ(stats::rank_error<float>(data, r1.value, 4000), 0u);
    ASSERT_EQ(dev.planner_log().size(), 1u);
    EXPECT_EQ(dev.planner_log().front().reason, "sampler thrash feedback");
    EXPECT_EQ(dev.robustness().backend_radix, 1u);

    // The mark advanced; with no new thrash the next decision is back to
    // the sampled descent.
    dev.clear_planner_log();
    const auto r2 = core::try_sample_select<float>(dev, data, 4000, {}).value();
    EXPECT_EQ(stats::rank_error<float>(data, r2.value, 4000), 0u);
    ASSERT_EQ(dev.planner_log().size(), 1u);
    EXPECT_EQ(dev.planner_log().front().backend, "sample");
}

TEST(Planner, ThrashFeedbackIgnoresDissimilarShapes) {
    ScopedEnv env("GPUSEL_BACKEND", nullptr);
    simt::Device dev(simt::arch_v100());
    const auto small = data::generate<float>(
        {.n = 8192, .dist = data::Distribution::uniform_real, .seed = 33});
    const auto large = data::generate<float>(
        {.n = 262144, .dist = data::Distribution::uniform_real, .seed = 34});

    // A selection establishes the feedback shape (n = 8192, float).
    (void)core::try_sample_select<float>(dev, small, 100, {}).value();
    // Thrash counters grow, but the next selection's shape is 32x larger:
    // stale feedback from a dissimilar problem must NOT reroute it.
    dev.robustness().resamples += 5;
    dev.clear_planner_log();
    const auto r1 = core::try_sample_select<float>(dev, large, 100000, {}).value();
    EXPECT_EQ(stats::rank_error<float>(large, r1.value, 100000), 0u);
    ASSERT_GE(dev.planner_log().size(), 1u);
    EXPECT_NE(dev.planner_log().front().reason, std::string("sampler thrash feedback"));

    // Same counters, similar shape (the large problem again): now the
    // feedback applies.
    dev.robustness().resamples += 5;
    dev.clear_planner_log();
    const auto r2 = core::try_sample_select<float>(dev, large, 100000, {}).value();
    EXPECT_EQ(stats::rank_error<float>(large, r2.value, 100000), 0u);
    ASSERT_GE(dev.planner_log().size(), 1u);
    EXPECT_EQ(dev.planner_log().front().reason, std::string("sampler thrash feedback"));
}

// ---- GPUSEL_BACKEND override ----------------------------------------------

TEST(Planner, EnvOverrideForcesSampleOnDuplicates) {
    ScopedEnv env("GPUSEL_BACKEND", "sample");
    simt::Device dev(simt::arch_v100());
    const std::vector<float> data(8192, 1.0f);
    const auto r = core::try_sample_select<float>(dev, data, 100, {}).value();
    EXPECT_EQ(r.value, 1.0f);
    EXPECT_EQ(dev.robustness().backend_sample, 1u);
    EXPECT_EQ(dev.robustness().backend_radix, 0u);
    EXPECT_EQ(dev.robustness().backend_env_overrides, 1u);
    ASSERT_EQ(dev.planner_log().size(), 1u);
    EXPECT_EQ(dev.planner_log().front().reason, "GPUSEL_BACKEND override");
    EXPECT_TRUE(dev.planner_log().front().env_forced);
}

TEST(Planner, EnvOverrideForcesRadixOnUniform) {
    ScopedEnv env("GPUSEL_BACKEND", "radix");
    simt::Device dev(simt::arch_v100());
    const auto data = data::generate<float>(
        {.n = 8192, .dist = data::Distribution::uniform_real, .seed = 13});
    const auto r = core::try_sample_select<float>(dev, data, 2222, {}).value();
    EXPECT_EQ(stats::rank_error<float>(data, r.value, 2222), 0u);
    EXPECT_EQ(dev.robustness().backend_radix, 1u);
    EXPECT_EQ(dev.robustness().backend_env_overrides, 1u);
}

TEST(Planner, EnvOverrideAutoLetsThePlannerDecide) {
    ScopedEnv env("GPUSEL_BACKEND", "auto");
    simt::Device dev(simt::arch_v100());
    const auto data = data::generate<float>(
        {.n = 8192, .dist = data::Distribution::uniform_real, .seed = 13});
    (void)core::try_sample_select<float>(dev, data, 2222, {}).value();
    EXPECT_EQ(dev.robustness().backend_sample, 1u);
    EXPECT_EQ(dev.robustness().backend_env_overrides, 0u);
}

TEST(Planner, InfeasibleEnvOverrideFallsThrough) {
    // bitonic cannot run n > kMaxSortSize: the override is ignored and the
    // automatic rules decide (uniform -> sample), without counting an
    // override.
    ScopedEnv env("GPUSEL_BACKEND", "bitonic");
    simt::Device dev(simt::arch_v100());
    const auto data = data::generate<float>(
        {.n = 8192, .dist = data::Distribution::uniform_real, .seed = 19});
    const auto r = core::try_sample_select<float>(dev, data, 4096, {}).value();
    EXPECT_EQ(stats::rank_error<float>(data, r.value, 4096), 0u);
    EXPECT_EQ(dev.robustness().backend_sample, 1u);
    EXPECT_EQ(dev.robustness().backend_bitonic, 0u);
    EXPECT_EQ(dev.robustness().backend_env_overrides, 0u);
    EXPECT_FALSE(dev.planner_log().front().env_forced);
}

// ---- adversarial matrix: identical selected sets across backends ----------

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
    const std::size_t n = 2048;  // within bitonic sort capacity
    const char* dists[] = {"all_equal", "two_value", "sorted", "reverse", "zipf"};
    const char* backends[] = {"sample", "radix", "bitonic"};

    for (const char* dist : dists) {
        const auto data = adversarial_dataset(dist, n);
        std::vector<float> sorted = data;
        std::sort(sorted.begin(), sorted.end());

        for (const std::size_t k : {std::size_t{1}, n / 2, n - 1}) {
            for (const char* backend : backends) {
                ScopedEnv env("GPUSEL_BACKEND", backend);
                SCOPED_TRACE(std::string(dist) + " k=" + std::to_string(k) + " " + backend);

                // Rank selection: the value at rank k must be exact.
                simt::Device sel_dev(simt::arch_v100());
                const auto r = core::try_sample_select<float>(sel_dev, data, k, {}).value();
                EXPECT_EQ(r.value, sorted[k]);
                EXPECT_EQ(sel_dev.robustness().backend_env_overrides, 1u);

                // Top-k: the selected multiset must equal the reference
                // top-k slice (identical across backends by transitivity).
                simt::Device topk_dev(simt::arch_v100());
                const auto t = core::try_topk_largest<float>(topk_dev, data, k, {}).value();
                ASSERT_EQ(t.elements.size(), k);
                std::vector<float> got = t.elements;
                std::sort(got.begin(), got.end());
                for (std::size_t i = 0; i < k; ++i) {
                    ASSERT_EQ(got[i], sorted[n - k + i]) << "slot " << i;
                }
                EXPECT_EQ(t.threshold, sorted[n - k]);
            }
        }
    }
}

}  // namespace
