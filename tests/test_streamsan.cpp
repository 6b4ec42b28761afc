// StreamSan tests (simt/streamsan.hpp, docs/streamsan.md): the environment
// grammar, a catalogue of deliberately-broken stream/event/pool micro-
// scenarios each asserting the exact diagnostic kind, the clean patterns
// that must NOT report (event edges, synchronize, stream-creation
// causality, gated pool reuse, disjoint ranges), collect-mode accumulation
// with the chrome-trace hazard track, determinism of the event-count
// golden stream with the analyzer on, and golden zero-hazard passes over
// the real multi-stream users: BatchExecutor and SelectServer::pump.

#include "simt/streamsan.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <future>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/batch_executor.hpp"
#include "core/pipeline.hpp"
#include "core/sample_select.hpp"
#include "data/distributions.hpp"
#include "server/service.hpp"
#include "simt/arch.hpp"
#include "simt/device.hpp"
#include "simt/memory.hpp"
#include "simt/pool.hpp"

namespace {

using namespace gpusel;
using simt::HazardKind;
using simt::StreamSanError;
using simt::StreamSanMode;

/// Env-var guard: sets GPUSEL_STREAMSAN for one scope, restores after.
class StreamSanEnv {
public:
    explicit StreamSanEnv(const char* value) {
        const char* old = std::getenv("GPUSEL_STREAMSAN");
        had_ = old != nullptr;
        if (had_) saved_ = old;
        if (value != nullptr) {
            ::setenv("GPUSEL_STREAMSAN", value, 1);
        } else {
            ::unsetenv("GPUSEL_STREAMSAN");
        }
    }
    ~StreamSanEnv() {
        if (had_) {
            ::setenv("GPUSEL_STREAMSAN", saved_.c_str(), 1);
        } else {
            ::unsetenv("GPUSEL_STREAMSAN");
        }
    }

private:
    std::string saved_;
    bool had_ = false;
};

// Device is pinned (no moves), so tests construct it locally and install
// StreamSan right after -- before any allocation, the same order the
// GPUSEL_STREAMSAN env path uses.
simt::Device make_dev() { return simt::Device(simt::arch_v100()); }

/// One-block kernel writing every element of `buf` through the tracked
/// warp store primitive.
void launch_write(simt::Device& dev, std::span<float> buf, int stream,
                  std::string name = "w") {
    dev.launch(std::move(name), {.grid_dim = 1, .block_dim = 32, .stream = stream},
               [buf](simt::BlockCtx& blk) {
                   blk.warp_tiles(buf.size(), [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                       float regs[simt::kWarpSize] = {};
                       w.store(buf, base, regs);
                   });
               });
}

/// One-block kernel reading every element of `buf` through the tracked
/// warp load primitive.
void launch_read(simt::Device& dev, std::span<const float> buf, int stream,
                 std::string name = "r") {
    dev.launch(std::move(name), {.grid_dim = 1, .block_dim = 32, .stream = stream},
               [buf](simt::BlockCtx& blk) {
                   blk.warp_tiles(buf.size(), [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                       float regs[simt::kWarpSize];
                       w.load(buf, base, regs);
                   });
               });
}

/// Runs `f` and returns the HazardKind of the StreamSanError it throws, or
/// nullopt if it completes (EXPECT the exact kind at the call site).
template <typename F>
std::optional<HazardKind> hazard_kind_of(F&& f) {
    try {
        f();
    } catch (const StreamSanError& e) {
        return e.hazard().kind;
    }
    return std::nullopt;
}

// ---- mode grammar -----------------------------------------------------------

TEST(StreamSanModeTest, ParsesEnvironmentGrammar) {
    {
        StreamSanEnv env(nullptr);
        EXPECT_EQ(simt::StreamSan::mode_from_env(), StreamSanMode::off);
    }
    for (const char* v : {"", "0", "off"}) {
        StreamSanEnv env(v);
        EXPECT_EQ(simt::StreamSan::mode_from_env(), StreamSanMode::off) << v;
    }
    for (const char* v : {"1", "strict", "on"}) {
        StreamSanEnv env(v);
        EXPECT_EQ(simt::StreamSan::mode_from_env(), StreamSanMode::strict) << v;
    }
    for (const char* v : {"2", "collect"}) {
        StreamSanEnv env(v);
        EXPECT_EQ(simt::StreamSan::mode_from_env(), StreamSanMode::collect) << v;
    }
    {
        StreamSanEnv env("bogus");
        EXPECT_THROW((void)simt::StreamSan::mode_from_env(), std::invalid_argument);
    }
}

// ---- deliberately-broken scenarios (strict mode, exact diagnostic kind) -----

TEST(StreamSanHazards, CrossStreamWriteWriteRace) {
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    const int s1 = dev.create_stream();
    auto buf = dev.alloc<float>(64);
    launch_write(dev, buf.span(), 0, "writer_a");
    EXPECT_EQ(hazard_kind_of([&] { launch_write(dev, buf.span(), s1, "writer_b"); }),
              HazardKind::write_write_race);
    EXPECT_GE(dev.stream_sanitizer()->total_hazards(), 1u);
}

TEST(StreamSanHazards, CrossStreamReadAfterWriteRace) {
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    const int s1 = dev.create_stream();
    auto buf = dev.alloc<float>(64);
    launch_write(dev, buf.span(), 0);
    EXPECT_EQ(hazard_kind_of([&] { launch_read(dev, buf.span(), s1); }),
              HazardKind::read_write_race);
}

TEST(StreamSanHazards, CrossStreamWriteAfterReadRace) {
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    const int s1 = dev.create_stream();
    auto buf = dev.alloc<float>(64);
    launch_read(dev, buf.span(), 0);
    EXPECT_EQ(hazard_kind_of([&] { launch_write(dev, buf.span(), s1); }),
              HazardKind::read_write_race);
}

TEST(StreamSanHazards, EventEdgeCoversOnlyEarlierWork) {
    // The event is recorded BETWEEN the write to `a` and the write to `b`,
    // so waiting on it orders `a` but leaves `b` racy.
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    const int s1 = dev.create_stream();
    auto a = dev.alloc<float>(64);
    auto b = dev.alloc<float>(64);
    launch_write(dev, a.span(), 0, "write_a");
    const double ev = dev.record_event(0);
    launch_write(dev, b.span(), 0, "write_b");
    dev.wait_event(s1, ev);
    launch_write(dev, a.span(), s1, "write_a_lane");  // ordered: clean
    EXPECT_EQ(hazard_kind_of([&] { launch_write(dev, b.span(), s1, "write_b_lane"); }),
              HazardKind::write_write_race);
}

TEST(StreamSanHazards, ForkWithoutJoinRaces) {
    // A fork edge orders the lane's start, but reading the lane's output
    // on the base stream without a join edge back is a race.
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    const int s1 = dev.create_stream();
    auto buf = dev.alloc<float>(64);
    const double fork = dev.record_event(0);
    dev.wait_event(s1, fork);
    launch_write(dev, buf.span(), s1, "lane_work");
    EXPECT_EQ(hazard_kind_of([&] { launch_read(dev, buf.span(), 0, "base_consume"); }),
              HazardKind::read_write_race);
}

TEST(StreamSanHazards, WaitOnUnrecordedEvent) {
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    const int s1 = dev.create_stream();
    auto buf = dev.alloc<float>(64);
    launch_write(dev, buf.span(), 0);
    const double bogus = dev.elapsed_ns() * 0.5;  // in the past, never recorded
    ASSERT_GT(bogus, 0.0);
    EXPECT_EQ(hazard_kind_of([&] { dev.wait_event(s1, bogus); }), HazardKind::wait_unrecorded);
}

TEST(StreamSanHazards, WaitOnPreResetEventIsUnrecorded) {
    // reset_clock() restarts the timeline: snapshots keyed by the old
    // timestamps are dropped, so a stale event handle is a hazard even if
    // the numeric value is reachable again.
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    const int s1 = dev.create_stream();
    auto buf = dev.alloc<float>(64);
    launch_write(dev, buf.span(), 0);
    const double ev = dev.record_event(0);
    ASSERT_GT(ev, 0.0);
    dev.reset_clock();
    launch_write(dev, buf.span(), 0);  // same launch: clock reaches >= ev again
    launch_write(dev, buf.span(), 0);
    ASSERT_GE(dev.elapsed_ns(), ev);
    EXPECT_EQ(hazard_kind_of([&] { dev.wait_event(s1, ev); }), HazardKind::wait_unrecorded);
}

TEST(StreamSanHazards, FutureWaitIsHbCycle) {
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    const int s1 = dev.create_stream();
    EXPECT_EQ(hazard_kind_of([&] { dev.wait_event(s1, dev.elapsed_ns() + 1.0e9); }),
              HazardKind::hb_cycle);
}

TEST(StreamSanHazards, UngatedPoolReuseAcrossStreams) {
    // A standalone pool has no stream clock, so cross-stream reuse has no
    // gating event: handing stream 1 a block last released on stream 0 is
    // exactly the use-after-free window the gate exists to close.
    simt::AllocationTracker tracker;
    simt::MemoryPool pool(tracker);
    simt::StreamSan ssan(StreamSanMode::strict, /*concurrent=*/false);
    pool.set_stream_sanitizer(&ssan);
    simt::PoolBlock* blk = pool.acquire(256, 0);
    pool.release(blk, 0);
    EXPECT_EQ(hazard_kind_of([&] { (void)pool.acquire(256, 1); }), HazardKind::pool_reuse);
}

TEST(StreamSanHazards, ReleaseInFlightWrite) {
    // The block's last write (stream s1) is not ordered before the release
    // claimed on stream 0.  The release runs on a noexcept path, so the
    // hazard is deferred and thrown from the next launch bracket.
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    const int s1 = dev.create_stream();
    simt::PoolBlock* blk = dev.pool().acquire(64 * sizeof(float), s1);
    std::span<float> user(reinterpret_cast<float*>(blk->data), 64);
    launch_write(dev, user, s1, "lane_write");
    dev.pool().release(blk, 0);
    auto scratch = dev.alloc<float>(32);
    EXPECT_EQ(hazard_kind_of([&] { launch_write(dev, scratch.span(), 0); }),
              HazardKind::release_in_flight);
}

TEST(StreamSanHazards, ReleaseInFlightRead) {
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    const int s1 = dev.create_stream();
    simt::PoolBlock* blk = dev.pool().acquire(64 * sizeof(float), s1);
    std::span<const float> user(reinterpret_cast<const float*>(blk->data), 64);
    launch_read(dev, user, s1, "lane_read");
    dev.pool().release(blk, 0);
    auto scratch = dev.alloc<float>(32);
    EXPECT_EQ(hazard_kind_of([&] { launch_write(dev, scratch.span(), 0); }),
              HazardKind::release_in_flight);
}

TEST(StreamSanHazards, HazardCarriesContext) {
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    const int s1 = dev.create_stream();
    auto buf = dev.alloc<float>(64);
    launch_write(dev, buf.span(), 0, "writer_a");
    try {
        launch_write(dev, buf.span(), s1, "writer_b");
        FAIL() << "expected StreamSanError";
    } catch (const StreamSanError& e) {
        const simt::StreamHazard& h = e.hazard();
        EXPECT_EQ(h.kind, HazardKind::write_write_race);
        EXPECT_EQ(h.kernel, "writer_b");
        EXPECT_EQ(h.stream, s1);
        EXPECT_EQ(h.other_stream, 0);
        EXPECT_LT(h.lo, h.hi);
        EXPECT_EQ(h.hi - h.lo, 64 * sizeof(float));
        EXPECT_NE(std::string(e.what()).find("write_write_race"), std::string::npos);
    }
}

// ---- clean patterns: must not report ----------------------------------------

TEST(StreamSanClean, EventEdgeOrdersCrossStreamAccess) {
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    const int s1 = dev.create_stream();
    auto buf = dev.alloc<float>(64);
    launch_write(dev, buf.span(), 0);
    const double ev = dev.record_event(0);
    dev.wait_event(s1, ev);
    launch_read(dev, buf.span(), s1);
    launch_write(dev, buf.span(), s1);
    EXPECT_EQ(dev.stream_sanitizer()->total_hazards(), 0u);
    EXPECT_GT(dev.stream_sanitizer()->checks(), 0u);
}

TEST(StreamSanClean, SynchronizeOrdersEverything) {
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    const int s1 = dev.create_stream();
    auto buf = dev.alloc<float>(64);
    launch_write(dev, buf.span(), s1);
    dev.synchronize();
    launch_write(dev, buf.span(), 0);
    EXPECT_EQ(dev.stream_sanitizer()->total_hazards(), 0u);
}

TEST(StreamSanClean, StreamCreationOrdersPriorWork) {
    // create_stream()'s causality rule: the new stream starts at the
    // device completion time, after everything enqueued so far.
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    auto buf = dev.alloc<float>(64);
    launch_write(dev, buf.span(), 0);
    const int s1 = dev.create_stream();
    launch_write(dev, buf.span(), s1);
    EXPECT_EQ(dev.stream_sanitizer()->total_hazards(), 0u);
}

TEST(StreamSanClean, DisjointBuffersDoNotAlias) {
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    const int s1 = dev.create_stream();
    auto a = dev.alloc<float>(64);
    auto b = dev.alloc<float>(64);
    launch_write(dev, a.span(), 0);
    launch_write(dev, b.span(), s1);
    EXPECT_EQ(dev.stream_sanitizer()->total_hazards(), 0u);
}

TEST(StreamSanClean, DisjointRangesWithinOneBuffer) {
    // The analysis is byte-range based: two streams in disjoint halves of
    // one region are not a conflict.
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    const int s1 = dev.create_stream();
    auto buf = dev.alloc<float>(128);
    launch_write(dev, buf.span().subspan(0, 64), 0);
    launch_write(dev, buf.span().subspan(64, 64), s1);
    EXPECT_EQ(dev.stream_sanitizer()->total_hazards(), 0u);
}

TEST(StreamSanClean, SameStreamAccessesAreOrdered) {
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    auto buf = dev.alloc<float>(64);
    launch_write(dev, buf.span(), 0);
    launch_read(dev, buf.span(), 0);
    launch_write(dev, buf.span(), 0);
    EXPECT_EQ(dev.stream_sanitizer()->total_hazards(), 0u);
}

TEST(StreamSanClean, GatedPoolReuseJoinsTimelines) {
    // The Device pool gates cross-stream reuse on completed timelines;
    // StreamSan models the gate as the allocator's internal event edge, so
    // the reusing stream inherits the previous user's history cleanly.
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    simt::PoolBlock* blk = dev.pool().acquire(64 * sizeof(float), 0);
    std::span<float> user(reinterpret_cast<float*>(blk->data), 64);
    launch_write(dev, user, 0);
    dev.pool().release(blk, 0);
    dev.synchronize();
    const int s1 = dev.create_stream();
    simt::PoolBlock* again = dev.pool().acquire(64 * sizeof(float), s1);
    ASSERT_EQ(again, blk);  // LIFO reuse of the same backing block
    launch_write(dev, user, s1);
    dev.pool().release(again, s1);
    launch_write(dev, user, s1);  // dangling span, but the region is unregistered
    EXPECT_EQ(dev.stream_sanitizer()->total_hazards(), 0u);
}

// ---- collect mode -----------------------------------------------------------

TEST(StreamSanCollect, RecordsHazardsAndKeepsRunning) {
    simt::Device dev(simt::arch_v100());
    dev.set_stream_sanitizer(StreamSanMode::collect);
    const int s1 = dev.create_stream();
    auto buf = dev.alloc<float>(64);
    launch_write(dev, buf.span(), 0, "writer_a");
    launch_write(dev, buf.span(), s1, "writer_b");  // racy, but must not throw
    launch_read(dev, buf.span(), 0, "reader_c");    // still racy vs writer_b
    const simt::StreamSan* ssan = dev.stream_sanitizer();
    ASSERT_NE(ssan, nullptr);
    EXPECT_GE(ssan->total_hazards(), 2u);
    const auto hazards = ssan->hazards();
    ASSERT_FALSE(hazards.empty());
    EXPECT_EQ(hazards.front().kind, HazardKind::write_write_race);
    const auto& instants = ssan->trace_instants();
    ASSERT_EQ(instants.size(), ssan->total_hazards());
    EXPECT_EQ(instants.front().track, simt::kStreamSanTrack);
    EXPECT_EQ(instants.front().name, "write_write_race");
    EXPECT_EQ(dev.robustness().streamsan_hazards, ssan->total_hazards());
}

TEST(StreamSanCollect, ClearResetsSinks) {
    simt::Device dev(simt::arch_v100());
    dev.set_stream_sanitizer(StreamSanMode::collect);
    const int s1 = dev.create_stream();
    auto buf = dev.alloc<float>(64);
    launch_write(dev, buf.span(), 0);
    launch_write(dev, buf.span(), s1);
    simt::StreamSan* ssan = dev.stream_sanitizer();
    ASSERT_GE(ssan->total_hazards(), 1u);
    ssan->clear();
    EXPECT_EQ(ssan->total_hazards(), 0u);
    EXPECT_TRUE(ssan->hazards().empty());
    EXPECT_TRUE(ssan->trace_instants().empty());
}

// ---- strict mode surfaces through the Status channel ------------------------

TEST(StreamSanStatus, StrictHazardMapsToSanitizerViolation) {
    // The pipeline's retry wrapper maps StreamSanError to
    // SelectError::sanitizer_violation (never retried), the same policy as
    // SimTSan violations.
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    const int s1 = dev.create_stream();
    auto buf = dev.alloc<float>(64);
    launch_write(dev, buf.span(), 0);
    core::SampleSelectConfig cfg;
    core::PipelineContext ctx(dev, cfg);
    const core::Status result =
        core::with_fault_retry(ctx, [&] { launch_write(dev, buf.span(), s1); });
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.code, core::SelectError::sanitizer_violation);
    EXPECT_NE(result.message.find("write_write_race"), std::string::npos);
}

TEST(StreamSanStatus, StrictHazardInsideLevelMapsToSanitizerViolation) {
    // The level executors retry through the same wrapper, so a hazard raised
    // by a level's own launch comes back typed instead of escaping as
    // StreamSanError: here the level's sampler reads on stream 1 a buffer
    // stream 0 wrote, with no event edge between them.
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    const int s1 = dev.create_stream();
    auto buf = dev.alloc<float>(4096);
    launch_write(dev, buf.span(), 0);
    core::SampleSelectConfig cfg;
    core::PipelineContext ctx(dev, cfg, s1);
    auto level = core::try_run_bucket_level<float>(ctx, std::span<const float>(buf.span()), 0,
                                                   simt::LaunchOrigin::host);
    ASSERT_FALSE(level.ok());
    EXPECT_EQ(level.error(), core::SelectError::sanitizer_violation);
    EXPECT_NE(level.status().message.find("read_write_race"), std::string::npos);
}

// ---- determinism ------------------------------------------------------------

TEST(StreamSanGolden, EventStreamIdenticalWithAnalyzerOn) {
    // StreamSan never touches counters, clocks or profiles: the golden
    // event stream of a full selection is byte-identical with it on.
    const auto data = data::generate<float>(
        {.n = 1u << 16, .dist = data::Distribution::uniform_real, .seed = 7});
    auto run = [&](bool with_ssan) {
        simt::Device dev(simt::arch_v100());
        if (with_ssan) dev.set_stream_sanitizer(StreamSanMode::strict);
        auto result = core::try_sample_select<float>(dev, data, data.size() / 2, {});
        EXPECT_TRUE(result.ok());
        std::ostringstream os;
        os << dev.counter_totals();
        return std::tuple(dev.launch_count(), dev.elapsed_ns(), os.str());
    };
    EXPECT_EQ(run(false), run(true));
}

// ---- golden clean passes over the real multi-stream users -------------------

TEST(StreamSanGolden, BatchExecutorIsClean) {
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    std::vector<std::vector<float>> inputs;
    std::vector<core::BatchProblem<float>> problems;
    for (std::uint64_t i = 0; i < 8; ++i) {
        inputs.push_back(data::generate<float>(
            {.n = 1u << 14, .dist = data::Distribution::uniform_real, .seed = 100 + i}));
        problems.push_back({inputs.back(), inputs.back().size() / 2, 0.0});
    }
    core::BatchExecutor<float> exec(dev, {}, {.streams = 4});
    const auto result = exec.run(problems);
    ASSERT_TRUE(result.ok()) << result.status().message;
    EXPECT_EQ(result.value().streams_used, 4);
    ASSERT_NE(dev.stream_sanitizer(), nullptr);
    EXPECT_EQ(dev.stream_sanitizer()->total_hazards(), 0u);
    EXPECT_GT(dev.stream_sanitizer()->checks(), 0u);  // liveness: it was looking
}

TEST(StreamSanGolden, ServerPumpIsClean) {
    auto dev = make_dev();
    dev.set_stream_sanitizer(StreamSanMode::strict);
    server::SelectServer srv(dev, {});
    const auto data = data::generate<float>(
        {.n = 1u << 15, .dist = data::Distribution::uniform_real, .seed = 11});
    std::vector<std::future<server::Response>> futures;
    for (int i = 0; i < 6; ++i) {
        server::Request req;
        req.data = data;
        req.rank = static_cast<std::size_t>(i) * 1000;
        futures.push_back(srv.submit(req));
    }
    while (srv.pump()) {
    }
    for (auto& fut : futures) {
        const server::Response r = fut.get();
        EXPECT_TRUE(r.status.ok()) << r.status.message;
    }
    ASSERT_NE(dev.stream_sanitizer(), nullptr);
    EXPECT_EQ(dev.stream_sanitizer()->total_hazards(), 0u);
    EXPECT_GT(dev.stream_sanitizer()->checks(), 0u);
}

}  // namespace
