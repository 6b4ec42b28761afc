// Tests for the stream-parallel batch executor (core/batch_executor.hpp):
// fan-width policy, per-problem event-stream identity with the serial
// path, simulated-time overlap (the ISSUE acceptance bound: 8 problems of
// n = 2^20 on 4 streams finish in <= 0.6x their serial sum), the top-k
// and multiselect batch front-ends, and a seeded fault soak over
// multi-stream batches (run under GPUSEL_SAN=1 by the soak ctest entry).

#include "core/batch_executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/multiselect.hpp"
#include "core/sample_select.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "simt/arch.hpp"
#include "simt/device.hpp"
#include "simt/fault.hpp"
#include "simt/timing.hpp"
#include "stats/order_stats.hpp"

namespace {

using namespace gpusel;

std::vector<float> make_data(std::size_t n, std::uint64_t seed) {
    return data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = seed});
}

/// Env-var guard: sets GPUSEL_STREAMS for one scope, restores after.
class StreamsEnv {
public:
    explicit StreamsEnv(const char* value) {
        const char* old = std::getenv("GPUSEL_STREAMS");
        if (old != nullptr) saved_ = old;
        had_ = old != nullptr;
        if (value != nullptr) {
            ::setenv("GPUSEL_STREAMS", value, 1);
        } else {
            ::unsetenv("GPUSEL_STREAMS");
        }
    }
    ~StreamsEnv() {
        if (had_) {
            ::setenv("GPUSEL_STREAMS", saved_.c_str(), 1);
        } else {
            ::unsetenv("GPUSEL_STREAMS");
        }
    }

private:
    std::string saved_;
    bool had_ = false;
};

TEST(BatchExecutor, ResolveStreamCountPolicy) {
    StreamsEnv env(nullptr);  // make sure the ambient variable is unset
    EXPECT_EQ(core::try_resolve_stream_count(0).value(), 1);
    EXPECT_EQ(core::try_resolve_stream_count(1).value(), 1);
    EXPECT_EQ(core::try_resolve_stream_count(3).value(), 3);
    EXPECT_EQ(core::try_resolve_stream_count(8).value(), 8);
    EXPECT_EQ(core::try_resolve_stream_count(100).value(), 8);  // default cap
    EXPECT_EQ(core::try_resolve_stream_count(100, 4).value(), 4);
    EXPECT_EQ(core::try_resolve_stream_count(2, 16).value(), 2);  // clamped to batch
}

TEST(BatchExecutor, ResolveStreamCountReadsEnvironment) {
    StreamsEnv env("5");
    EXPECT_EQ(core::try_resolve_stream_count(100).value(), 5);
    EXPECT_EQ(core::try_resolve_stream_count(3).value(), 3);       // still clamped to batch
    EXPECT_EQ(core::try_resolve_stream_count(100, 2).value(), 2);  // explicit request wins
}

TEST(BatchExecutor, ResolveStreamCountRejectsMalformedEnvironment) {
    // Every malformed GPUSEL_STREAMS value is a typed invalid_argument,
    // never a silent fallback to the default fan (docs/robustness.md).
    for (const char* bad : {"abc", "0", "-3", "99999", "7junk", "7.5", "++"}) {
        StreamsEnv env(bad);
        const auto r = core::try_resolve_stream_count(100);
        ASSERT_FALSE(r.ok()) << "GPUSEL_STREAMS=" << bad;
        EXPECT_EQ(r.status().code, core::SelectError::invalid_argument)
            << "GPUSEL_STREAMS=" << bad;
        EXPECT_FALSE(r.status().message.empty());
    }
}

TEST(BatchExecutor, ResolveStreamCountAcceptsPaddedEnvironment) {
    {
        StreamsEnv env("  6  ");  // surrounding whitespace is not an error
        EXPECT_EQ(core::try_resolve_stream_count(100).value(), 6);
    }
    {
        StreamsEnv env("");  // empty string means unset, not malformed
        EXPECT_EQ(core::try_resolve_stream_count(100).value(), 8);
    }
    {
        StreamsEnv env("256");  // cap itself is still legal
        EXPECT_EQ(core::try_resolve_stream_count(1000).value(), 256);
    }
}

TEST(BatchExecutor, ResolveStreamCountExplicitRequestSkipsEnvironment) {
    StreamsEnv env("abc");  // malformed, but an explicit request never reads it
    EXPECT_EQ(core::try_resolve_stream_count(100, 4).value(), 4);
}

TEST(BatchExecutor, StreamFanLeasesAndReleases) {
    simt::Device dev(simt::arch_v100());
    const int before = dev.stream_count();
    {
        core::StreamFan fan(dev, 4);
        EXPECT_EQ(fan.count(), 4);
        EXPECT_EQ(fan.stream(0), 0);
        (void)fan.fork();
        fan.join();
    }
    {
        // A second fan re-leases the same stream slots instead of growing
        // the table.
        core::StreamFan fan(dev, 4);
        EXPECT_EQ(dev.stream_count(), before + 3);
        (void)fan.fork();
        fan.join();
    }
}

TEST(BatchExecutor, StreamFanDestructorJoinsUnjoinedLanes) {
    // An early error return (or exception) can destroy a forked fan before
    // join(); the destructor must perform the join itself so a lease is
    // never released with un-joined lane work pending.
    simt::Device dev(simt::arch_v100());
    auto buf = dev.alloc<float>(1 << 12);
    {
        core::StreamFan fan(dev, 4);
        (void)fan.fork();
        const int lane = fan.stream(3);
        dev.launch("lane_work", {.grid_dim = 4, .block_dim = 256, .stream = lane},
                   [&](simt::BlockCtx& blk) {
                       blk.warp_tiles(buf.size(),
                                      [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                                          float regs[simt::kWarpSize] = {};
                                          w.store(buf.span(), base, regs);
                                      });
                   });
        EXPECT_GT(dev.stream_clock(lane), dev.stream_clock(0));
        // Scope exit WITHOUT join(): the destructor joins, then releases.
    }
    EXPECT_DOUBLE_EQ(dev.stream_clock(0), dev.elapsed_ns());
}

TEST(BatchExecutor, FaultedRunsDoNotLeakStreamLeases) {
    // Regression for the fork/join exception-safety audit: a run that
    // fails between fork() and join() must still join the lanes and return
    // every lease -- the stream table stays at the fan width instead of
    // growing per failure, and the base stream always ends caught up.
    simt::Device dev(simt::arch_v100());
    core::SampleSelectConfig cfg;
    std::vector<std::vector<float>> inputs;
    std::vector<core::BatchProblem<float>> problems;
    for (std::size_t i = 0; i < 4; ++i) {
        inputs.push_back(make_data(20000 + 1000 * i, 77 + i));
        problems.push_back({inputs.back(), inputs.back().size() / 2});
    }
    int failures = 0;
    for (std::size_t round = 0; round < 30; ++round) {
        // Hard fault rates: most rounds exhaust the bounded retries and
        // unwind out of the batch mid-flight.
        simt::FaultSpec spec;
        spec.seed = 90 + round;
        spec.alloc_rate = 0.30;
        spec.launch_rate = 0.30;
        dev.set_faults(spec);
        core::BatchExecutor<float> exec(dev, cfg, {.streams = 4});
        auto run = exec.run(problems);
        if (!run.ok()) ++failures;
        EXPECT_LE(dev.stream_count(), 4) << "round " << round;
        EXPECT_DOUBLE_EQ(dev.stream_clock(0), dev.elapsed_ns()) << "round " << round;
    }
    dev.clear_faults();
    EXPECT_GT(failures, 0);  // the schedule really exercised the error path
    core::BatchExecutor<float> retry(dev, cfg, {.streams = 4});
    auto clean = retry.run(problems);
    ASSERT_TRUE(clean.ok()) << clean.status().message;
    EXPECT_EQ(dev.stream_count(), 4);
}

TEST(BatchExecutor, PerProblemEventStreamsMatchSerial) {
    core::SampleSelectConfig cfg;
    constexpr std::size_t kProblems = 5;
    std::vector<std::vector<float>> inputs;
    inputs.reserve(kProblems);
    std::vector<core::BatchProblem<float>> problems;
    for (std::size_t i = 0; i < kProblems; ++i) {
        inputs.push_back(make_data(40000 + 4000 * i, 100 + i));
        problems.push_back({inputs.back(), inputs.back().size() / 2});
    }

    simt::Device dev(simt::arch_v100());
    core::BatchExecutor<float> exec(dev, cfg, {.streams = 2});
    auto run = exec.run(problems);
    ASSERT_TRUE(run.ok()) << run.status().message;
    const auto& res = run.value();
    ASSERT_EQ(res.items.size(), kProblems);
    EXPECT_EQ(res.streams_used, 2);
    EXPECT_EQ(res.recursive_problems, kProblems);

    const auto& batch_profiles = dev.profiles();
    for (std::size_t i = 0; i < kProblems; ++i) {
        // The serial reference: the same problem alone on a fresh device.
        simt::Device sdev(simt::arch_v100());
        auto ref = core::try_sample_select<float>(sdev, problems[i].data, problems[i].rank, cfg);
        ASSERT_TRUE(ref.ok());
        EXPECT_EQ(res.items[i].value, ref.value().value) << "problem " << i;

        const auto& ref_profiles = sdev.profiles();
        const std::uint64_t first = res.items[i].first_launch;
        const std::uint64_t last = res.items[i].last_launch;
        ASSERT_EQ(last - first, ref_profiles.size()) << "problem " << i;
        for (std::size_t j = 0; j < ref_profiles.size(); ++j) {
            const simt::KernelProfile& a = batch_profiles[first + j];
            const simt::KernelProfile& b = ref_profiles[j];
            EXPECT_EQ(a.name, b.name) << "problem " << i << " launch " << j;
            EXPECT_EQ(a.grid_dim, b.grid_dim);
            EXPECT_EQ(a.block_dim, b.block_dim);
            EXPECT_EQ(a.origin, b.origin);
            EXPECT_EQ(a.unroll, b.unroll);
            EXPECT_EQ(a.counters, b.counters) << "problem " << i << " launch " << j;
            // The only difference: the batch run tags the problem's stream.
            EXPECT_EQ(a.stream, res.items[i].stream);
        }
    }
}

TEST(BatchExecutor, EightProblemsOnFourStreamsOverlap) {
    core::SampleSelectConfig cfg;
    constexpr std::size_t kN = std::size_t{1} << 20;
    constexpr std::size_t kProblems = 8;
    std::vector<std::vector<float>> inputs;
    inputs.reserve(kProblems);
    std::vector<core::BatchProblem<float>> problems;
    for (std::size_t i = 0; i < kProblems; ++i) {
        inputs.push_back(make_data(kN, 7 + i));
        problems.push_back({inputs.back(), kN / 2});
    }

    simt::Device dev(simt::arch_v100());
    core::BatchExecutor<float> exec(dev, cfg, {.streams = 4});
    auto run = exec.run(problems);
    ASSERT_TRUE(run.ok()) << run.status().message;
    const auto& res = run.value();
    EXPECT_EQ(res.streams_used, 4);
    ASSERT_GT(res.serial_ns, 0.0);
    // The acceptance bound: the 4-stream wall clock must be well under the
    // serial sum of the same launches.
    EXPECT_LE(res.wall_ns, 0.6 * res.serial_ns)
        << "overlap_x = " << res.overlap_x();
    // The timing model's profile-level overlap summary agrees.
    const simt::StreamOverlap ov = simt::summarize_overlap(dev.profiles());
    EXPECT_EQ(ov.streams, 4);
    EXPECT_GT(ov.overlap_x(), 1.0);

    for (std::size_t i = 0; i < kProblems; ++i) {
        EXPECT_EQ(stats::rank_error<float>(problems[i].data, res.items[i].value,
                                           problems[i].rank),
                  0u)
            << "problem " << i;
    }
}

TEST(BatchExecutor, CoalescesShortProblemsPerStream) {
    core::SampleSelectConfig cfg;
    constexpr std::size_t kProblems = 10;
    std::vector<std::vector<float>> inputs;
    inputs.reserve(kProblems);
    std::vector<core::BatchProblem<float>> problems;
    for (std::size_t i = 0; i < kProblems; ++i) {
        inputs.push_back(make_data(64 + 8 * i, 31 + i));
        problems.push_back({inputs.back(), i % inputs.back().size()});
    }

    simt::Device dev(simt::arch_v100());
    core::BatchExecutor<float> exec(dev, cfg, {.streams = 3});
    auto run = exec.run(problems);
    ASSERT_TRUE(run.ok()) << run.status().message;
    const auto& res = run.value();
    EXPECT_EQ(res.coalesced_problems, kProblems);
    EXPECT_EQ(res.recursive_problems, 0u);
    // One fused launch per lane that holds problems, nothing else.
    EXPECT_EQ(res.coalesced_launches, 3u);
    EXPECT_EQ(res.launches, 3u);
    for (std::size_t i = 0; i < kProblems; ++i) {
        EXPECT_TRUE(res.items[i].coalesced);
        EXPECT_EQ(stats::rank_error<float>(problems[i].data, res.items[i].value,
                                           problems[i].rank),
                  0u)
            << "problem " << i;
    }
}

TEST(BatchExecutor, NanTailRanksAnswerQuietNan) {
    core::SampleSelectConfig cfg;
    std::vector<float> with_nans = make_data(1000, 3);
    with_nans[10] = std::numeric_limits<float>::quiet_NaN();
    with_nans[500] = std::numeric_limits<float>::quiet_NaN();
    std::vector<float> clean = make_data(1000, 4);
    const std::vector<core::BatchProblem<float>> problems{
        {with_nans, 999},  // inside the 2-element NaN tail
        {clean, 500},
    };
    simt::Device dev(simt::arch_v100());
    core::BatchExecutor<float> exec(dev, cfg, {.streams = 2});
    auto run = exec.run(problems);
    ASSERT_TRUE(run.ok());
    EXPECT_TRUE(std::isnan(run.value().items[0].value));
    EXPECT_EQ(run.value().nan_count, 2u);
    EXPECT_FALSE(std::isnan(run.value().items[1].value));

    core::SampleSelectConfig reject = cfg;
    reject.nan_policy = core::NanPolicy::reject;
    simt::Device dev2(simt::arch_v100());
    core::BatchExecutor<float> exec2(dev2, reject, {.streams = 2});
    auto r2 = exec2.run(problems);
    ASSERT_FALSE(r2.ok());
    EXPECT_EQ(r2.status().code, core::SelectError::nan_keys_rejected);
}

TEST(BatchExecutor, TopKBatchMatchesSerial) {
    core::SampleSelectConfig cfg;
    constexpr std::size_t kProblems = 6;
    std::vector<std::vector<float>> inputs;
    inputs.reserve(kProblems);
    std::vector<core::TopKBatchProblem<float>> problems;
    for (std::size_t i = 0; i < kProblems; ++i) {
        inputs.push_back(make_data(20000 + 2000 * i, 400 + i));
        problems.push_back({inputs.back(), 100 + 10 * i});
    }

    simt::Device dev(simt::arch_v100());
    auto run = core::try_topk_largest_batch<float>(dev, problems, cfg, {.streams = 3});
    ASSERT_TRUE(run.ok()) << run.status().message;
    const auto& res = run.value();
    ASSERT_EQ(res.items.size(), kProblems);
    EXPECT_EQ(res.streams_used, 3);
    EXPECT_GE(res.serial_ns, res.wall_ns - 1e-6);

    std::uint64_t serial_launches = 0;
    for (std::size_t i = 0; i < kProblems; ++i) {
        simt::Device sdev(simt::arch_v100());
        auto ref = core::try_topk_largest<float>(sdev, problems[i].data, problems[i].k, cfg);
        ASSERT_TRUE(ref.ok());
        serial_launches += ref.value().launches;
        EXPECT_EQ(res.items[i].threshold, ref.value().threshold) << "problem " << i;
        auto got = res.items[i].elements;
        auto want = ref.value().elements;
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        EXPECT_EQ(got, want) << "problem " << i;
    }
    EXPECT_EQ(res.launches, serial_launches);
}

TEST(BatchExecutor, MultiSelectFanMatchesSerialAndNeverSlower) {
    const auto input = make_data(200000, 97);
    std::vector<std::size_t> ranks;
    for (std::size_t i = 0; i < 8; ++i) ranks.push_back(input.size() / 9 * (i + 1));

    core::SampleSelectConfig cfg;
    core::MultiSelectResult<float> serial;
    {
        StreamsEnv env("1");
        simt::Device dev(simt::arch_v100());
        serial = core::try_multi_select<float>(dev, input, ranks, cfg).value();
        EXPECT_EQ(serial.streams_used, 1);
    }
    core::MultiSelectResult<float> fanned;
    {
        StreamsEnv env("4");
        simt::Device dev(simt::arch_v100());
        fanned = core::try_multi_select<float>(dev, input, ranks, cfg).value();
        EXPECT_EQ(fanned.streams_used, 4);
    }
    // The host recurses depth-first either way, so results and launch
    // counts are identical; only the overlap in simulated time differs.
    EXPECT_EQ(fanned.values, serial.values);
    EXPECT_EQ(fanned.launches, serial.launches);
    EXPECT_LE(fanned.sim_ns, serial.sim_ns + 1e-6);
}

// Seeded fault soak over multi-stream batches (docs/robustness.md): every
// scenario must end in a provably correct batch result or a typed Status,
// never a crash or a silently wrong answer.  The soak ctest entry re-runs
// this suite with GPUSEL_SAN=1 and a raised GPUSEL_SOAK_SCENARIOS.
class BatchSoak : public ::testing::Test {};

std::size_t soak_scenarios() {
    if (const char* env = std::getenv("GPUSEL_SOAK_SCENARIOS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v > 0) return static_cast<std::size_t>(v);
    }
    return 40;
}

simt::FaultSpec soak_faults(std::size_t scenario) {
    simt::FaultSpec spec;
    spec.seed = 11 * scenario + 3;
    switch (scenario % 4) {
        case 0: break;  // fault-free control
        case 1: spec.alloc_rate = 0.02; break;
        case 2: spec.launch_rate = 0.02; break;
        default:
            spec.alloc_rate = 0.01;
            spec.launch_rate = 0.01;
            spec.stall_rate = 0.03;
            spec.stall_ns = 250.0;
            break;
    }
    return spec;
}

TEST_F(BatchSoak, MultiStreamBatchesUnderFaults) {
    const std::size_t scenarios = soak_scenarios();
    for (std::size_t sc = 0; sc < scenarios; ++sc) {
        simt::Device dev(simt::arch_v100());
        dev.set_faults(soak_faults(sc));

        core::SampleSelectConfig cfg;
        cfg.seed = 500 + sc;
        std::vector<std::vector<float>> inputs;
        inputs.reserve(6);
        std::vector<core::BatchProblem<float>> problems;
        for (std::size_t i = 0; i < 6; ++i) {
            // Mixed batch: coalesced short sequences and recursive long ones.
            const std::size_t n = (i % 2 == 0) ? 256 + 32 * i : 9000 + 500 * i;
            inputs.push_back(make_data(n, 1000 * sc + i));
            problems.push_back({inputs.back(), (n / 3) * (i % 3)});
        }

        core::BatchExecutor<float> exec(dev, cfg,
                                        {.streams = 1 + static_cast<int>(sc % 4)});
        auto run = exec.run(problems);
        if (!run.ok()) {
            // Exhausted injected faults are acceptable; contract violations
            // and internal errors are not.
            EXPECT_NE(run.status().code, core::SelectError::internal)
                << "scenario " << sc << ": " << run.status().message;
            EXPECT_NE(run.status().code, core::SelectError::sanitizer_violation)
                << "scenario " << sc << ": " << run.status().message;
            continue;
        }
        for (std::size_t i = 0; i < problems.size(); ++i) {
            EXPECT_EQ(stats::rank_error<float>(problems[i].data,
                                               run.value().items[i].value, problems[i].rank),
                      0u)
                << "scenario " << sc << " problem " << i;
        }
    }
}

}  // namespace
