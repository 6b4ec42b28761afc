// Unit tests for the SIMT execution engine: block/warp contexts, shared
// memory, atomics with collision accounting, warp aggregation, the device
// launch machinery (host and device launch origins) and allocation tracking.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/sample_select.hpp"
#include "simt/arch.hpp"
#include "simt/block.hpp"
#include "simt/device.hpp"
#include "simt/memory.hpp"
#include "simt/thread_pool.hpp"
#include "stats/order_stats.hpp"

namespace {

using namespace gpusel::simt;

Device make_device() { return Device(arch_v100()); }

TEST(ArchPresets, TableOneValues) {
    const auto k20 = arch_k20xm();
    EXPECT_EQ(k20.num_sms, 13);
    EXPECT_DOUBLE_EQ(k20.sustained_bandwidth_gbs, 146.0);
    EXPECT_FALSE(k20.has_fast_shared_atomics);
    const auto v100 = arch_v100();
    EXPECT_EQ(v100.num_sms, 80);
    EXPECT_DOUBLE_EQ(v100.sustained_bandwidth_gbs, 742.0);
    EXPECT_TRUE(v100.has_fast_shared_atomics);
    EXPECT_GT(v100.shared_atomic_ops_per_ns, v100.global_atomic_ops_per_ns);
    EXPECT_GT(k20.global_atomic_ops_per_ns, k20.shared_atomic_ops_per_ns);
}

TEST(ArchPresets, PresetLookup) {
    EXPECT_EQ(preset("V100").name, "V100");
    EXPECT_EQ(preset("k20xm").name, "K20Xm");
    EXPECT_THROW((void)preset("A100"), std::invalid_argument);
}

TEST(BlockCtx, RejectsBadBlockDim) {
    const auto arch = arch_v100();
    EXPECT_THROW(BlockCtx(arch, 0, 1, 33, 1024), std::invalid_argument);
    EXPECT_THROW(BlockCtx(arch, 0, 1, 0, 1024), std::invalid_argument);
    EXPECT_THROW(BlockCtx(arch, 0, 1, 2048, 1024), std::invalid_argument);
}

TEST(BlockCtx, SharedArrayCapacityEnforced) {
    const auto arch = arch_v100();
    BlockCtx blk(arch, 0, 1, 256, 1024);
    auto a = blk.shared_array<std::int32_t>(128);  // 512 B
    EXPECT_EQ(a.size(), 128u);
    auto b = blk.shared_array<std::int32_t>(128);  // 1024 B total
    EXPECT_EQ(b.size(), 128u);
    EXPECT_THROW((void)blk.shared_array<std::int32_t>(1), std::runtime_error);
}

TEST(BlockCtx, SharedArraysDisjoint) {
    const auto arch = arch_v100();
    BlockCtx blk(arch, 0, 1, 256, 4096);
    auto a = blk.shared_array<std::int32_t>(16);
    auto b = blk.shared_array<std::int32_t>(16);
    a[15] = 7;
    b[0] = 9;
    EXPECT_EQ(a[15], 7);
}

TEST(BlockCtx, SyncCountsBarriers) {
    const auto arch = arch_v100();
    BlockCtx blk(arch, 0, 1, 256, 4096);
    blk.sync();
    blk.sync();
    EXPECT_EQ(blk.counters().block_barriers, 2u);
}

TEST(WarpTiles, CoversEveryIndexExactlyOnce) {
    Device dev = make_device();
    const std::size_t n = 10007;  // odd size exercises partial tiles
    std::vector<int> hits(n, 0);
    dev.launch("cover", {.grid_dim = 7, .block_dim = 64}, [&](BlockCtx& blk) {
        blk.warp_tiles(n, [&](WarpCtx& w, std::size_t base, std::size_t) {
            for (int l = 0; l < w.lanes(); ++l) ++hits[base + static_cast<std::size_t>(l)];
        });
    });
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i], 1) << "index " << i;
    }
}

TEST(WarpTiles, LoadStoreRoundTripAndByteCounts) {
    Device dev = make_device();
    const std::size_t n = 4096;
    auto src = dev.alloc<float>(n);
    auto dst = dev.alloc<float>(n);
    std::iota(src.data(), src.data() + n, 0.0f);
    const auto prof = dev.launch("copy", {.grid_dim = 4, .block_dim = 128}, [&](BlockCtx& blk) {
        blk.warp_tiles(n, [&](WarpCtx& w, std::size_t base, std::size_t) {
            float regs[kWarpSize];
            w.load(std::span<const float>(src.span()), base, regs);
            w.store(dst.span(), base, regs);
        });
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(dst[i], static_cast<float>(i));
    EXPECT_EQ(prof.counters.global_bytes_read, n * sizeof(float));
    EXPECT_EQ(prof.counters.global_bytes_written, n * sizeof(float));
}

TEST(Warp, AtomicAddCountsCollisions) {
    const auto arch = arch_v100();
    BlockCtx blk(arch, 0, 1, 32, 1 << 16);
    WarpCtx w(blk, 32);
    std::vector<std::int32_t> counters(8, 0);
    std::int32_t bucket[kWarpSize];
    for (int l = 0; l < 32; ++l) bucket[l] = l % 4;  // 4 distinct targets
    w.atomic_add(AtomicSpace::shared, counters, bucket);
    EXPECT_EQ(blk.counters().shared_atomic_ops, 32u);
    EXPECT_EQ(blk.counters().shared_atomic_collisions, 28u);  // 32 - 4 distinct
    for (int i = 0; i < 4; ++i) EXPECT_EQ(counters[static_cast<std::size_t>(i)], 8);
    for (int i = 4; i < 8; ++i) EXPECT_EQ(counters[static_cast<std::size_t>(i)], 0);
}

TEST(Warp, AtomicAddAllSameAddressMaxCollisions) {
    const auto arch = arch_v100();
    BlockCtx blk(arch, 0, 1, 32, 1 << 16);
    WarpCtx w(blk, 32);
    std::vector<std::int32_t> counters(2, 0);
    std::int32_t bucket[kWarpSize] = {};  // all zero
    w.atomic_add(AtomicSpace::global, counters, bucket);
    EXPECT_EQ(blk.counters().global_atomic_ops, 32u);
    EXPECT_EQ(blk.counters().global_atomic_collisions, 31u);
    EXPECT_EQ(counters[0], 32);
}

TEST(Warp, AggregatedAtomicSameResultFewerOps) {
    const auto arch = arch_v100();
    BlockCtx blk(arch, 0, 1, 32, 1 << 16);
    WarpCtx w(blk, 32);
    std::vector<std::int32_t> plain(16, 0);
    std::vector<std::int32_t> agg(16, 0);
    std::int32_t bucket[kWarpSize];
    for (int l = 0; l < 32; ++l) bucket[l] = (l * 7) % 5;
    w.atomic_add(AtomicSpace::shared, plain, bucket);
    const auto ops_plain = blk.counters().shared_atomic_ops;
    w.atomic_add_aggregated(AtomicSpace::shared, agg, bucket, 4);
    const auto ops_total = blk.counters().shared_atomic_ops;
    EXPECT_EQ(plain, agg);                      // identical histogram
    EXPECT_EQ(ops_total - ops_plain, 5u);       // one op per distinct bucket
    EXPECT_EQ(blk.counters().warp_ballots, 4u);  // index_bits ballots
    EXPECT_EQ(blk.counters().shared_atomic_collisions, 32u - 5u);  // only plain
}

TEST(Warp, FetchAddAssignsUniqueOffsets) {
    const auto arch = arch_v100();
    BlockCtx blk(arch, 0, 1, 32, 1 << 16);
    WarpCtx w(blk, 32);
    std::vector<std::int32_t> ctr(1, 100);
    std::int32_t which[kWarpSize] = {};
    std::int32_t off[kWarpSize];
    w.fetch_add(AtomicSpace::shared, ctr, which, off, /*aggregated=*/false, 1);
    std::vector<std::int32_t> offs(off, off + 32);
    std::sort(offs.begin(), offs.end());
    for (int l = 0; l < 32; ++l) EXPECT_EQ(offs[static_cast<std::size_t>(l)], 100 + l);
    EXPECT_EQ(ctr[0], 132);
}

TEST(Warp, FetchAddAggregatedMatchesPlainSemantics) {
    const auto arch = arch_v100();
    BlockCtx blk(arch, 0, 1, 32, 1 << 16);
    WarpCtx w(blk, 32);
    std::vector<std::int32_t> ctr(2, 0);
    std::int32_t which[kWarpSize];
    bool active[kWarpSize];
    for (int l = 0; l < 32; ++l) {
        which[l] = l % 2;
        active[l] = (l % 3) != 0;
    }
    std::int32_t off[kWarpSize];
    w.fetch_add(AtomicSpace::shared, ctr, which, off, /*aggregated=*/true, 1, active);
    // Offsets per counter must be unique and dense starting at 0.
    std::vector<std::int32_t> per_ctr[2];
    int n_active = 0;
    for (int l = 0; l < 32; ++l) {
        if (active[l]) {
            per_ctr[which[l]].push_back(off[l]);
            ++n_active;
        }
    }
    for (auto& offs : per_ctr) {
        std::sort(offs.begin(), offs.end());
        for (std::size_t i = 0; i < offs.size(); ++i) {
            EXPECT_EQ(offs[i], static_cast<std::int32_t>(i));
        }
    }
    EXPECT_EQ(ctr[0] + ctr[1], n_active);
    // aggregated: exactly 2 atomics (one per distinct counter)
    EXPECT_EQ(blk.counters().shared_atomic_ops, 2u);
}

TEST(Warp, GatherScatterCountsScatteredBytes) {
    Device dev = make_device();
    const std::size_t n = 64;
    auto src = dev.alloc<double>(n);
    auto dst = dev.alloc<double>(n);
    std::iota(src.data(), src.data() + n, 0.0);
    const auto prof = dev.launch("gs", {.grid_dim = 1, .block_dim = 32}, [&](BlockCtx& blk) {
        blk.warp_tiles(n, [&](WarpCtx& w, std::size_t base, std::size_t) {
            std::size_t idx[kWarpSize];
            double regs[kWarpSize];
            for (int l = 0; l < w.lanes(); ++l) {
                idx[l] = n - 1 - (base + static_cast<std::size_t>(l));
            }
            w.gather(std::span<const double>(src.span()), idx, regs);
            w.store(dst.span(), base, regs);
        });
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(dst[i], src[n - 1 - i]);
    EXPECT_EQ(prof.counters.scattered_bytes_read, n * sizeof(double));
}

TEST(Device, ClockAdvancesAndProfilesRecorded) {
    Device dev = make_device();
    EXPECT_EQ(dev.elapsed_ns(), 0.0);
    dev.launch("noop", {.grid_dim = 1, .block_dim = 32}, [](BlockCtx&) {});
    EXPECT_GT(dev.elapsed_ns(), 0.0);  // at least launch latency
    ASSERT_EQ(dev.profiles().size(), 1u);
    EXPECT_EQ(dev.profiles()[0].name, "noop");
    EXPECT_EQ(dev.launch_count(), 1u);
}

TEST(Device, DeviceOriginCheaperThanHost) {
    Device dev = make_device();
    const auto host =
        dev.launch("h", {.grid_dim = 1, .block_dim = 32, .origin = LaunchOrigin::host},
                   [](BlockCtx&) {});
    const auto devl =
        dev.launch("d", {.grid_dim = 1, .block_dim = 32, .origin = LaunchOrigin::device},
                   [](BlockCtx&) {});
    EXPECT_GT(host.sim_ns, devl.sim_ns);
}

TEST(Device, GlobalAtomicsSafeUnderHostParallelism) {
    Device dev(arch_v100(), {.host_workers = 4});
    auto ctr = dev.alloc<std::int32_t>(1);
    ctr[0] = 0;
    const std::size_t n = 1 << 16;
    dev.launch("inc", {.grid_dim = 64, .block_dim = 128}, [&](BlockCtx& blk) {
        blk.warp_tiles(n, [&](WarpCtx& w, std::size_t, std::size_t) {
            std::int32_t zeros[kWarpSize] = {};
            std::int32_t old[kWarpSize];
            w.fetch_add(AtomicSpace::global, ctr.span(), zeros, old, false, 1);
        });
    });
    EXPECT_EQ(ctr[0], static_cast<std::int32_t>(n));
}

TEST(Streams, LaunchesOnOneStreamSerialize) {
    Device dev = make_device();
    auto body = [](BlockCtx& blk) { blk.charge_instr(1000000); };
    const auto a = dev.launch("a", {.grid_dim = 160, .block_dim = 256}, body);
    const auto b = dev.launch("b", {.grid_dim = 160, .block_dim = 256}, body);
    EXPECT_DOUBLE_EQ(dev.elapsed_ns(), a.sim_ns + b.sim_ns);
}

TEST(Streams, DifferentStreamsOverlap) {
    Device dev = make_device();
    const int s1 = dev.create_stream();
    const int s2 = dev.create_stream();
    auto body = [](BlockCtx& blk) { blk.charge_instr(10000000); };
    const auto a = dev.launch("a", {.grid_dim = 160, .block_dim = 256, .stream = s1}, body);
    const auto b = dev.launch("b", {.grid_dim = 160, .block_dim = 256, .stream = s2}, body);
    // idealized full overlap: total = max, not sum
    EXPECT_DOUBLE_EQ(dev.elapsed_ns(), std::max(a.sim_ns, b.sim_ns));
    EXPECT_DOUBLE_EQ(dev.stream_clock(s1), a.sim_ns);
    EXPECT_DOUBLE_EQ(dev.stream_clock(s2), b.sim_ns);
}

TEST(Streams, NewStreamStartsAtCurrentCompletion) {
    Device dev = make_device();
    dev.launch("warmup", {.grid_dim = 1, .block_dim = 32}, [](BlockCtx&) {});
    const double after_warmup = dev.elapsed_ns();
    const int s = dev.create_stream();
    dev.launch("later", {.grid_dim = 1, .block_dim = 32, .stream = s}, [](BlockCtx&) {});
    EXPECT_GT(dev.stream_clock(s), after_warmup);  // causality: no time travel
}

TEST(Streams, WaitEventOrdersAcrossStreams) {
    Device dev = make_device();
    const int s1 = dev.create_stream();
    const int s2 = dev.create_stream();
    dev.launch("producer", {.grid_dim = 160, .block_dim = 256, .stream = s1},
               [](BlockCtx& blk) { blk.charge_instr(50000000); });
    const double ev = dev.record_event(s1);
    dev.wait_event(s2, ev);
    const auto c = dev.launch("consumer", {.grid_dim = 1, .block_dim = 32, .stream = s2},
                              [](BlockCtx&) {});
    EXPECT_DOUBLE_EQ(dev.stream_clock(s2), ev + c.sim_ns);
}

TEST(Streams, SynchronizeAlignsAllStreams) {
    Device dev = make_device();
    const int s1 = dev.create_stream();
    dev.launch("work", {.grid_dim = 160, .block_dim = 256, .stream = s1},
               [](BlockCtx& blk) { blk.charge_instr(10000000); });
    dev.synchronize();
    EXPECT_DOUBLE_EQ(dev.stream_clock(0), dev.elapsed_ns());
    EXPECT_DOUBLE_EQ(dev.stream_clock(s1), dev.elapsed_ns());
}

TEST(Streams, AdvanceStreamMovesCompletion) {
    // An advanced stream holds work until its new clock, so the device
    // completes no earlier: a later join must not move the stream back,
    // and a new stream must not start before it.
    Device dev = make_device();
    dev.advance_stream(0, 1000.0);
    EXPECT_DOUBLE_EQ(dev.elapsed_ns(), 1000.0);
    dev.synchronize();
    EXPECT_DOUBLE_EQ(dev.stream_clock(0), 1000.0);
    const int s = dev.lease_stream();
    EXPECT_DOUBLE_EQ(dev.stream_clock(s), 1000.0);
}

TEST(Streams, UnknownStreamRejected) {
    Device dev = make_device();
    EXPECT_THROW(
        (void)dev.launch("x", {.grid_dim = 1, .block_dim = 32, .stream = 7}, [](BlockCtx&) {}),
        std::invalid_argument);
    EXPECT_THROW((void)dev.stream_clock(7), std::invalid_argument);
}

TEST(Streams, TwoSelectionsOverlapEndToEnd) {
    // The stream knob on SampleSelectConfig lets two full selections share
    // the device: total completion < sum of individual durations.
    Device dev = make_device();
    const int s1 = dev.create_stream();
    const int s2 = dev.create_stream();
    const std::size_t n = 1 << 18;
    std::vector<float> data(n);
    for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<float>((i * 2654435761u) % n);
    gpusel::core::SampleSelectConfig c1;
    c1.stream = s1;
    gpusel::core::SampleSelectConfig c2;
    c2.stream = s2;
    const auto r1 = gpusel::core::try_sample_select<float>(dev, data, n / 4, c1).value();
    const auto r2 = gpusel::core::try_sample_select<float>(dev, data, 3 * n / 4, c2).value();
    // Wall clock is the max over the two streams' busy time, not the sum.
    const double busy1 = dev.stream_clock(s1);
    const double busy2 = dev.stream_clock(s2);
    EXPECT_GT(busy1, 0.0);
    EXPECT_GT(busy2, 0.0);
    EXPECT_DOUBLE_EQ(dev.elapsed_ns(), std::max(busy1, busy2));
    EXPECT_LT(dev.elapsed_ns(), 0.75 * (busy1 + busy2));
    EXPECT_EQ(r1.value, gpusel::stats::nth_element_reference(data, n / 4));
    EXPECT_EQ(r2.value, gpusel::stats::nth_element_reference(data, 3 * n / 4));
}

TEST(HostParallelism, FullPipelineMatchesSequential) {
    // Blocks executed on a host thread pool must produce the same result,
    // the same event totals and the same simulated time as sequential
    // execution (interleaving only changes write order, never counts).
    const std::size_t n = 1 << 16;
    std::vector<float> data(n);
    for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<float>((i * 40503u) % n);

    Device seq(arch_v100());
    Device par(arch_v100(), {.host_workers = 4});
    gpusel::core::SampleSelectConfig cfg;
    cfg.atomic_space = AtomicSpace::global;  // exercises cross-block atomics
    const auto rs = gpusel::core::try_sample_select<float>(seq, data, n / 3, cfg).value();
    const auto rp = gpusel::core::try_sample_select<float>(par, data, n / 3, cfg).value();
    EXPECT_EQ(rs.value, rp.value);
    EXPECT_EQ(rs.sim_ns, rp.sim_ns);
    EXPECT_EQ(seq.counter_totals(), par.counter_totals());
}

TEST(AllocationTracker, PeakAboveBaseline) {
    AllocationTracker t;
    t.on_alloc(100);
    t.set_baseline();
    t.on_alloc(50);
    t.on_alloc(30);
    t.on_free(50);
    t.on_alloc(10);
    EXPECT_EQ(t.peak_above_baseline(), 80u);
    EXPECT_EQ(t.current(), 140u);
}

TEST(DeviceBuffer, TracksAllocationLifetime) {
    Device dev = make_device();
    const auto before = dev.tracker().current();
    {
        auto buf = dev.alloc<double>(1000);
        EXPECT_EQ(dev.tracker().current(), before + 8000);
    }
    EXPECT_EQ(dev.tracker().current(), before);
}

TEST(DeviceBuffer, MoveTransfersOwnership) {
    Device dev = make_device();
    auto a = dev.alloc<int>(10);
    a[3] = 42;
    auto b = std::move(a);
    EXPECT_EQ(b[3], 42);
    EXPECT_EQ(b.size(), 10u);
    EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(ThreadPool, InlineExecutionWhenNoWorkers) {
    ThreadPool pool(0);
    std::vector<int> hits(100, 0);
    pool.parallel_for(100, [&](std::size_t i) { ++hits[i]; });
    for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelExecutionCoversAll) {
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesException) {
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallel_for(10,
                                   [](std::size_t i) {
                                       if (i == 5) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
}

TEST(Counters, AdditionAggregates) {
    KernelCounters a;
    a.global_bytes_read = 10;
    a.shared_atomic_ops = 3;
    KernelCounters b;
    b.global_bytes_read = 5;
    b.warp_ballots = 2;
    const auto c = a + b;
    EXPECT_EQ(c.global_bytes_read, 15u);
    EXPECT_EQ(c.shared_atomic_ops, 3u);
    EXPECT_EQ(c.warp_ballots, 2u);
}

}  // namespace
