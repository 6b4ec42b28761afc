// Unit tests for the analytic timing model (simt/timing.hpp): the
// architectural contrasts the paper's evaluation rests on must be visible
// in simulated durations.

#include <gtest/gtest.h>

#include "simt/arch.hpp"
#include "simt/timing.hpp"

namespace {

using namespace gpusel::simt;

KernelProfile base_profile() {
    KernelProfile p;
    p.name = "k";
    p.grid_dim = 1280;  // enough threads for full utilization on V100
    p.block_dim = 256;
    return p;
}

TEST(TimingModel, LaunchLatencyOnly) {
    const auto arch = arch_v100();
    auto p = base_profile();
    const auto t = simulate_time(arch, p);
    EXPECT_DOUBLE_EQ(t.total_ns, arch.host_launch_ns);
}

TEST(TimingModel, DeviceLaunchCheaper) {
    const auto arch = arch_v100();
    auto p = base_profile();
    p.origin = LaunchOrigin::device;
    EXPECT_DOUBLE_EQ(simulate_time(arch, p).launch_ns, arch.device_launch_ns);
    EXPECT_LT(arch.device_launch_ns, arch.host_launch_ns);
}

TEST(TimingModel, MemoryTimeMatchesBandwidth) {
    const auto arch = arch_v100();
    auto p = base_profile();
    p.counters.global_bytes_read = 742'000'000;  // 1 ms at sustained BW
    const auto t = simulate_time(arch, p);
    EXPECT_NEAR(t.mem_ns, 1e6, 1e6 * 0.15);  // within the unroll-efficiency factor
    EXPECT_STREQ(t.bottleneck, "mem");
}

TEST(TimingModel, ScatteredTrafficSlower) {
    const auto arch = arch_v100();
    auto p = base_profile();
    p.counters.global_bytes_read = 1'000'000;
    const double coalesced = simulate_time(arch, p).mem_ns;
    p.counters.global_bytes_read = 0;
    p.counters.scattered_bytes_read = 1'000'000;
    const double scattered = simulate_time(arch, p).mem_ns;
    EXPECT_GT(scattered, 2.0 * coalesced);
}

TEST(TimingModel, SharedAtomicsFastOnVoltaSlowOnKepler) {
    auto p = base_profile();
    p.counters.shared_atomic_ops = 1'000'000;
    const double volta = simulate_time(arch_v100(), p).atomic_ns;
    const double kepler = simulate_time(arch_k20xm(), p).atomic_ns;
    EXPECT_LT(volta * 10.0, kepler);
}

TEST(TimingModel, GlobalAtomicsWinOnKeplerSharedOnVolta) {
    auto shared_p = base_profile();
    shared_p.counters.shared_atomic_ops = 1'000'000;
    auto global_p = base_profile();
    global_p.counters.global_atomic_ops = 1'000'000;
    // Kepler: global atomics faster than (lock-emulated) shared atomics.
    EXPECT_LT(simulate_time(arch_k20xm(), global_p).atomic_ns,
              simulate_time(arch_k20xm(), shared_p).atomic_ns);
    // Volta: native shared atomics are much faster than global ones.
    EXPECT_LT(simulate_time(arch_v100(), shared_p).atomic_ns,
              simulate_time(arch_v100(), global_p).atomic_ns / 10.0);
}

TEST(TimingModel, CollisionsPenalized) {
    auto p = base_profile();
    p.counters.shared_atomic_ops = 1'000'000;
    const double clean = simulate_time(arch_k20xm(), p).atomic_ns;
    p.counters.shared_atomic_collisions = 900'000;
    const double colliding = simulate_time(arch_k20xm(), p).atomic_ns;
    EXPECT_GT(colliding, 2.0 * clean);
}

TEST(TimingModel, CollisionTolerantVoltaSharedAtomics) {
    auto p = base_profile();
    p.counters.shared_atomic_ops = 1'000'000;
    const double clean = simulate_time(arch_v100(), p).atomic_ns;
    p.counters.shared_atomic_collisions = 900'000;
    const double colliding = simulate_time(arch_v100(), p).atomic_ns;
    // Sec. V-E: warp-aggregation unnecessary on V100 -> mild penalty only.
    EXPECT_LT(colliding, 1.5 * clean);
}

TEST(TimingModel, UnderUtilizationSlowsThroughput) {
    const auto arch = arch_v100();
    auto p = base_profile();
    p.counters.global_bytes_read = 1'000'000;
    const double full = simulate_time(arch, p).mem_ns;
    p.grid_dim = 2;  // almost no parallelism
    const double tiny = simulate_time(arch, p).mem_ns;
    EXPECT_GT(tiny, 5.0 * full);
}

TEST(TimingModel, BottleneckLabels) {
    const auto arch = arch_v100();
    auto p = base_profile();
    p.counters.shared_atomic_ops = 100'000'000;
    EXPECT_STREQ(simulate_time(arch, p).bottleneck, "atomic");
    p.counters.shared_atomic_ops = 0;
    p.counters.instructions = 1'000'000'000;
    EXPECT_STREQ(simulate_time(arch, p).bottleneck, "compute");
}

TEST(TimingModel, BarriersSerializeAcrossWaves) {
    const auto arch = arch_v100();
    auto p = base_profile();
    p.grid_dim = arch.num_sms * 8 * 4;  // 4 waves
    p.counters.block_barriers = static_cast<std::uint64_t>(p.grid_dim) * 10;
    const auto t = simulate_time(arch, p);
    EXPECT_GT(t.barrier_ns, 0.0);
}

TEST(TimingModel, TotalIsLaunchPlusBodyPlusBarriers) {
    const auto arch = arch_k20xm();
    auto p = base_profile();
    p.counters.global_bytes_read = 123456;
    p.counters.block_barriers = 100;
    const auto t = simulate_time(arch, p);
    EXPECT_DOUBLE_EQ(t.total_ns, t.launch_ns + t.body_ns + t.barrier_ns);
}

TEST(TimingModel, EpilogueRunsAfterTheBody) {
    const auto arch = arch_v100();
    auto p = base_profile();
    p.counters.global_bytes_read = 1'000'000;
    const auto plain = simulate_time(arch, p);
    // A locate over 1024 totals: far less traffic than the body, so inside
    // the max(...) it would vanish; after the body it cannot.
    p.epilogue.global_bytes_read = 4096;
    p.epilogue.global_bytes_written = 4100;
    p.epilogue.instructions = 2048;
    const auto t = simulate_time(arch, p);
    EXPECT_DOUBLE_EQ(t.launch_ns, plain.launch_ns);  // charged once
    EXPECT_DOUBLE_EQ(t.body_ns, plain.body_ns);
    EXPECT_DOUBLE_EQ(t.barrier_ns, plain.barrier_ns);
    EXPECT_DOUBLE_EQ(t.total_ns, t.launch_ns + t.body_ns + t.barrier_ns + t.epilogue_ns);
    // One warp of one block at its own utilization (the 0.02 floor), not
    // the grid's: memory-bound at 8196 B / (742 B/ns * 0.02 * 0.92).
    EXPECT_DOUBLE_EQ(t.epilogue_ns, 8196.0 / (arch.sustained_bytes_per_ns() * 0.02 * 0.92));
    KernelProfile one_warp;
    one_warp.grid_dim = 1;
    one_warp.block_dim = kWarpSize;
    one_warp.counters = p.epilogue;
    const auto w = simulate_time(arch, one_warp);
    EXPECT_DOUBLE_EQ(t.epilogue_ns, w.total_ns - w.launch_ns);
    p.grid_dim = 2;  // the grid's shape does not move it
    EXPECT_DOUBLE_EQ(simulate_time(arch, p).epilogue_ns, t.epilogue_ns);

    // An empty epilogue adds exactly nothing.
    p = base_profile();
    p.counters.global_bytes_read = 1'000'000;
    const auto empty = simulate_time(arch, p);
    EXPECT_EQ(empty.epilogue_ns, 0.0);
    EXPECT_EQ(empty.total_ns, plain.total_ns);
}

TEST(SuggestGrid, CoversDataAndRespectsCap) {
    const auto arch = arch_v100();
    EXPECT_EQ(suggest_grid(arch, 0, 256), 1);
    EXPECT_EQ(suggest_grid(arch, 256, 256), 1);
    EXPECT_EQ(suggest_grid(arch, 257, 256), 2);
    EXPECT_EQ(suggest_grid(arch, 1u << 28, 256), arch.num_sms * 2);
    // unroll shrinks the needed grid
    EXPECT_EQ(suggest_grid(arch, 1024, 256, 4), 1);
}

}  // namespace
