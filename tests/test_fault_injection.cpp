// Tests for the deterministic fault-injection layer (simt/fault.hpp): the
// GPUSEL_FAULTS grammar, draw-stream determinism, burst semantics, and the
// no-side-effect guarantees the Device gives around injected faults
// (docs/robustness.md "Fault model").

#include "simt/fault.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "simt/arch.hpp"
#include "simt/device.hpp"

namespace {

using namespace gpusel;

simt::LaunchConfig tiny_launch() { return {.grid_dim = 1, .block_dim = 32}; }

void noop_kernel(simt::BlockCtx& blk) { blk.charge_instr(1); }

// ---- FaultSpec grammar ----------------------------------------------------

TEST(FaultSpec, ParsesFullGrammar) {
    const auto spec = simt::FaultSpec::parse(
        "seed=7,alloc=0.25,launch=0.5,stall=0.125,stall_ns=1500,alloc_burst=3,launch_burst=2");
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_DOUBLE_EQ(spec.alloc_rate, 0.25);
    EXPECT_DOUBLE_EQ(spec.launch_rate, 0.5);
    EXPECT_DOUBLE_EQ(spec.stall_rate, 0.125);
    EXPECT_DOUBLE_EQ(spec.stall_ns, 1500.0);
    EXPECT_EQ(spec.alloc_burst, 3);
    EXPECT_EQ(spec.launch_burst, 2);
    EXPECT_TRUE(spec.any());
}

TEST(FaultSpec, DefaultsAreFaultFree) {
    const simt::FaultSpec spec;
    EXPECT_FALSE(spec.any());
    EXPECT_FALSE(simt::FaultSpec::parse("seed=42").any());
}

TEST(FaultSpec, ToleratesEmptyEntriesAndTrailingCommas) {
    const auto spec = simt::FaultSpec::parse("alloc=0.1,,launch=0.2,");
    EXPECT_DOUBLE_EQ(spec.alloc_rate, 0.1);
    EXPECT_DOUBLE_EQ(spec.launch_rate, 0.2);
}

TEST(FaultSpec, RejectsMalformedInput) {
    EXPECT_THROW((void)simt::FaultSpec::parse("bogus=1"), std::invalid_argument);
    EXPECT_THROW((void)simt::FaultSpec::parse("alloc"), std::invalid_argument);
    EXPECT_THROW((void)simt::FaultSpec::parse("alloc=abc"), std::invalid_argument);
    EXPECT_THROW((void)simt::FaultSpec::parse("alloc=1.5"), std::invalid_argument);
    EXPECT_THROW((void)simt::FaultSpec::parse("launch=-0.1"), std::invalid_argument);
    EXPECT_THROW((void)simt::FaultSpec::parse("stall_ns=-5"), std::invalid_argument);
    EXPECT_THROW((void)simt::FaultSpec::parse("alloc_burst=0"), std::invalid_argument);
    EXPECT_THROW((void)simt::FaultSpec::parse("seed=notanumber"), std::invalid_argument);
}

TEST(FaultSpec, FromEnvReadsGpuselFaults) {
    ::unsetenv("GPUSEL_FAULTS");
    EXPECT_FALSE(simt::FaultSpec::from_env().has_value());
    ::setenv("GPUSEL_FAULTS", "seed=11,launch=0.5", 1);
    const auto spec = simt::FaultSpec::from_env();
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->seed, 11u);
    EXPECT_DOUBLE_EQ(spec->launch_rate, 0.5);
    ::unsetenv("GPUSEL_FAULTS");
}

// ---- FaultInjector determinism ---------------------------------------------

TEST(FaultInjector, SameSeedReplaysTheSameSchedule) {
    simt::FaultSpec spec;
    spec.seed = 99;
    spec.alloc_rate = 0.3;
    spec.launch_rate = 0.2;
    spec.stall_rate = 0.1;
    simt::FaultInjector a(spec);
    simt::FaultInjector b(spec);
    for (int i = 0; i < 2000; ++i) {
        switch (i % 3) {
            case 0: EXPECT_EQ(a.should_fail_alloc(), b.should_fail_alloc()) << i; break;
            case 1: EXPECT_EQ(a.should_fail_launch(), b.should_fail_launch()) << i; break;
            default: EXPECT_DOUBLE_EQ(a.stall_penalty_ns(), b.stall_penalty_ns()) << i; break;
        }
    }
    EXPECT_EQ(a.counters().alloc_faults, b.counters().alloc_faults);
    EXPECT_EQ(a.counters().launch_faults, b.counters().launch_faults);
    EXPECT_EQ(a.counters().stalls, b.counters().stalls);
}

TEST(FaultInjector, DifferentSeedsGiveDifferentSchedules) {
    simt::FaultSpec sa;
    sa.seed = 1;
    sa.alloc_rate = 0.5;
    simt::FaultSpec sb = sa;
    sb.seed = 2;
    simt::FaultInjector a(sa);
    simt::FaultInjector b(sb);
    int diff = 0;
    for (int i = 0; i < 256; ++i) {
        if (a.should_fail_alloc() != b.should_fail_alloc()) ++diff;
    }
    EXPECT_GT(diff, 0);
}

TEST(FaultInjector, BurstRepeatsTheTriggeredFault) {
    // Locate the first naturally drawn fault with burst 1, then check that
    // the identical spec with burst 3 forces the two calls after it too.
    simt::FaultSpec base;
    base.seed = 5;
    base.alloc_rate = 0.05;
    simt::FaultInjector plain(base);
    int first = -1;
    for (int i = 0; i < 500 && first < 0; ++i) {
        if (plain.should_fail_alloc()) first = i;
    }
    ASSERT_GE(first, 0) << "rate 0.05 produced no fault in 500 draws";

    simt::FaultSpec bursty = base;
    bursty.alloc_burst = 3;
    simt::FaultInjector burst(bursty);
    for (int i = 0; i < first; ++i) EXPECT_FALSE(burst.should_fail_alloc()) << i;
    EXPECT_TRUE(burst.should_fail_alloc());  // the drawn fault
    EXPECT_TRUE(burst.should_fail_alloc());  // burst continuation
    EXPECT_TRUE(burst.should_fail_alloc());  // burst continuation
    EXPECT_EQ(burst.counters().alloc_faults, 3u);
}

TEST(FaultInjector, DisabledInjectorNeverFaults) {
    simt::FaultInjector inj;
    EXPECT_FALSE(inj.enabled());
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(inj.should_fail_alloc());
        EXPECT_FALSE(inj.should_fail_launch());
        EXPECT_DOUBLE_EQ(inj.stall_penalty_ns(), 0.0);
    }
}

// ---- Device wiring ----------------------------------------------------------

TEST(DeviceFaults, LaunchFaultHasNoSideEffects) {
    simt::Device dev(simt::arch_v100());
    simt::FaultSpec spec;
    spec.launch_rate = 1.0;
    dev.set_faults(spec);
    bool ran = false;
    EXPECT_THROW((void)dev.launch("doomed", tiny_launch(),
                                  [&](simt::BlockCtx& blk) {
                                      ran = true;
                                      noop_kernel(blk);
                                  }),
                 simt::LaunchFault);
    EXPECT_FALSE(ran) << "a faulted launch must not execute any block";
    EXPECT_EQ(dev.launch_count(), 0u);
    EXPECT_DOUBLE_EQ(dev.elapsed_ns(), 0.0);
    EXPECT_TRUE(dev.profiles().empty());
    EXPECT_EQ(dev.fault_counters().launch_faults, 1u);
}

TEST(DeviceFaults, AllocFaultFiresFromBothAllocAndPool) {
    simt::Device dev(simt::arch_v100());
    simt::FaultSpec spec;
    spec.alloc_rate = 1.0;
    dev.set_faults(spec);
    EXPECT_THROW((void)dev.alloc<float>(64), simt::AllocFault);
    EXPECT_THROW((void)dev.pooled<float>(64), simt::AllocFault);
    EXPECT_GE(dev.fault_counters().alloc_faults, 2u);
}

TEST(DeviceFaults, ClearFaultsRestoresHealth) {
    simt::Device dev(simt::arch_v100());
    simt::FaultSpec spec;
    spec.alloc_rate = 1.0;
    spec.launch_rate = 1.0;
    dev.set_faults(spec);
    EXPECT_THROW((void)dev.alloc<float>(8), simt::AllocFault);
    dev.clear_faults();
    EXPECT_NO_THROW((void)dev.alloc<float>(8));
    EXPECT_NO_THROW((void)dev.launch("healthy", tiny_launch(), noop_kernel));
    EXPECT_EQ(dev.launch_count(), 1u);
}

TEST(DeviceFaults, StallAdvancesTheStreamClockOnly) {
    simt::Device clean(simt::arch_v100());
    (void)clean.launch("work", tiny_launch(), noop_kernel);

    simt::Device stalled(simt::arch_v100());
    simt::FaultSpec spec;
    spec.stall_rate = 1.0;
    spec.stall_ns = 1234.5;
    stalled.set_faults(spec);
    (void)stalled.launch("work", tiny_launch(), noop_kernel);

    // The launch itself succeeds and is charged normally; the stall only
    // delays subsequent work on the stream.
    EXPECT_EQ(stalled.launch_count(), 1u);
    EXPECT_DOUBLE_EQ(stalled.elapsed_ns(), clean.elapsed_ns() + 1234.5);
    EXPECT_EQ(stalled.fault_counters().stalls, 1u);
}

TEST(DeviceFaults, EnvSpecIsInstalledAtConstruction) {
    ::setenv("GPUSEL_FAULTS", "seed=3,launch=1.0", 1);
    simt::Device dev(simt::arch_v100());
    ::unsetenv("GPUSEL_FAULTS");
    EXPECT_TRUE(dev.fault_injector().enabled());
    EXPECT_THROW((void)dev.launch("doomed", tiny_launch(), noop_kernel), simt::LaunchFault);
}

}  // namespace
