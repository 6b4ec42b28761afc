// Tests for SimTSan (simt/sanitizer.hpp): every contract-violation class is
// exercised by a deliberately broken micro-kernel and must be detected with
// the right ViolationKind, strict mode must throw at the detection point,
// collect mode must record and keep running, and -- the determinism
// contract -- enabling the sanitizer must leave kernel event counts
// byte-identical (docs/static_analysis.md).

#include "simt/sanitizer.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <vector>

#include "core/pipeline.hpp"
#include "core/sample_select.hpp"
#include "core/status.hpp"
#include "simt/arch.hpp"
#include "simt/device.hpp"

namespace {

using namespace gpusel;

simt::Device make_strict() {
    // NOLINTNEXTLINE -- local device per test keeps shadow state isolated
    return simt::Device(simt::arch_v100());
}

std::vector<float> uniform_floats(std::size_t n, unsigned seed = 42) {
    std::mt19937 gen(seed);
    std::uniform_real_distribution<float> d(-1.0f, 1.0f);
    std::vector<float> v(n);
    for (auto& x : v) x = d(gen);
    return v;
}

/// Runs `f`, requires it to throw SanError, and returns the violation kind.
template <typename F>
simt::ViolationKind expect_san_error(F&& f) {
    try {
        f();
    } catch (const simt::SanError& e) {
        return e.violation().kind;
    }
    ADD_FAILURE() << "expected a SanError, none was thrown";
    return simt::ViolationKind::global_race;
}

// ---- mode parsing ---------------------------------------------------------

TEST(SanMode, ParsesEnvironmentGrammar) {
    const char* saved = std::getenv("GPUSEL_SAN");
    const std::string saved_copy = saved ? saved : "";

    ::unsetenv("GPUSEL_SAN");
    EXPECT_EQ(simt::Sanitizer::mode_from_env(), simt::SanMode::off);
    ::setenv("GPUSEL_SAN", "0", 1);
    EXPECT_EQ(simt::Sanitizer::mode_from_env(), simt::SanMode::off);
    ::setenv("GPUSEL_SAN", "1", 1);
    EXPECT_EQ(simt::Sanitizer::mode_from_env(), simt::SanMode::strict);
    ::setenv("GPUSEL_SAN", "strict", 1);
    EXPECT_EQ(simt::Sanitizer::mode_from_env(), simt::SanMode::strict);
    ::setenv("GPUSEL_SAN", "2", 1);
    EXPECT_EQ(simt::Sanitizer::mode_from_env(), simt::SanMode::collect);
    ::setenv("GPUSEL_SAN", "collect", 1);
    EXPECT_EQ(simt::Sanitizer::mode_from_env(), simt::SanMode::collect);
    ::setenv("GPUSEL_SAN", "bogus", 1);
    EXPECT_THROW((void)simt::Sanitizer::mode_from_env(), std::invalid_argument);

    if (saved) {
        ::setenv("GPUSEL_SAN", saved_copy.c_str(), 1);
    } else {
        ::unsetenv("GPUSEL_SAN");
    }
}

// ---- cross-block global races (broken micro-kernels) ----------------------

TEST(SimTSan, DetectsWriteWriteRaceAcrossBlocks) {
    auto dev = make_strict();
    dev.set_sanitizer(simt::SanMode::strict);
    auto buf = dev.alloc<std::int32_t>(8);
    const auto kind = expect_san_error([&] {
        dev.launch("ww_race", {.grid_dim = 2, .block_dim = 32}, [&](simt::BlockCtx& blk) {
            // BROKEN ON PURPOSE: both blocks store to the same word.
            blk.st(buf.span(), 0, blk.block_idx());
            blk.charge_global_write(sizeof(std::int32_t));
        });
    });
    EXPECT_EQ(kind, simt::ViolationKind::global_race);
}

TEST(SimTSan, DetectsReadWriteRaceAcrossBlocks) {
    auto dev = make_strict();
    dev.set_sanitizer(simt::SanMode::strict);
    auto buf = dev.alloc<std::int32_t>(8);
    const auto kind = expect_san_error([&] {
        dev.launch("rw_race", {.grid_dim = 2, .block_dim = 32}, [&](simt::BlockCtx& blk) {
            // BROKEN ON PURPOSE: block 0 writes the word block 1 reads.
            if (blk.block_idx() == 0) {
                blk.st(buf.span(), 0, 7);
            } else {
                (void)blk.ld(buf.span(), 0);
            }
            blk.charge_global_read(sizeof(std::int32_t));
        });
    });
    EXPECT_EQ(kind, simt::ViolationKind::global_race);
}

TEST(SimTSan, DetectsAtomicMixedWithPlainStore) {
    auto dev = make_strict();
    dev.set_sanitizer(simt::SanMode::strict);
    auto buf = dev.alloc<std::int32_t>(4);
    const auto kind = expect_san_error([&] {
        dev.launch("mixed_race", {.grid_dim = 2, .block_dim = 32}, [&](simt::BlockCtx& blk) {
            if (blk.block_idx() == 0) {
                // BROKEN ON PURPOSE: a plain store to an atomic counter.
                blk.st(buf.span(), 0, 1);
            } else {
                blk.warp_tiles_local(1, [&](simt::WarpCtx& w, std::size_t, std::size_t) {
                    const std::int32_t which[simt::kWarpSize] = {};
                    w.atomic_add(simt::AtomicSpace::global, buf.span(), which);
                });
            }
        });
    });
    EXPECT_EQ(kind, simt::ViolationKind::global_race);
}

TEST(SimTSan, AtomicOnlyContentionIsClean) {
    auto dev = make_strict();
    dev.set_sanitizer(simt::SanMode::strict);
    auto buf = dev.alloc<std::int32_t>(4);
    EXPECT_NO_THROW(dev.launch(
        "atomic_ok", {.grid_dim = 4, .block_dim = 32}, [&](simt::BlockCtx& blk) {
            blk.warp_tiles_local(1, [&](simt::WarpCtx& w, std::size_t, std::size_t) {
                const std::int32_t which[simt::kWarpSize] = {};
                w.atomic_add(simt::AtomicSpace::global, buf.span(), which);
            });
        }));
    ASSERT_NE(dev.sanitizer(), nullptr);
    EXPECT_EQ(dev.sanitizer()->total_violations(), 0u);
    EXPECT_GT(dev.sanitizer()->checks(), 0u);
    EXPECT_EQ(buf[0], 4);
}

// ---- shared-memory epoch hazards ------------------------------------------

TEST(SimTSan, DetectsCrossWarpSharedAccessWithoutSync) {
    auto dev = make_strict();
    dev.set_sanitizer(simt::SanMode::strict);
    const auto kind = expect_san_error([&] {
        dev.launch("sh_epoch", {.grid_dim = 1, .block_dim = 64}, [&](simt::BlockCtx& blk) {
            auto sh = blk.shared_array<std::int32_t>(32);
            // BROKEN ON PURPOSE: both warps hit sh[0] with no sync().
            blk.warp_tiles(64, [&](simt::WarpCtx&, std::size_t, std::size_t) {
                blk.shared_st(sh, 0, 1);
            });
            blk.sync();
        });
    });
    EXPECT_EQ(kind, simt::ViolationKind::shared_epoch);
}

TEST(SimTSan, SharedHandoffAfterSyncIsClean) {
    auto dev = make_strict();
    dev.set_sanitizer(simt::SanMode::strict);
    EXPECT_NO_THROW(dev.launch(
        "sh_handoff", {.grid_dim = 1, .block_dim = 64}, [&](simt::BlockCtx& blk) {
            auto sh = blk.shared_array<std::int32_t>(32);
            blk.warp_tiles(64, [&](simt::WarpCtx&, std::size_t base, std::size_t) {
                if (base == 0) blk.shared_st(sh, 0, 41);  // warp 0's tile only
            });
            blk.sync();  // epoch boundary: the handoff below is legal
            blk.warp_tiles(64, [&](simt::WarpCtx&, std::size_t, std::size_t) {
                (void)blk.shared_ld(sh, 0);
            });
            blk.sync();
        }));
}

// ---- out-of-bounds (always fatal, even in collect mode) --------------------

TEST(SimTSan, GlobalOobThrowsInCollectMode) {
    auto dev = make_strict();
    dev.set_sanitizer(simt::SanMode::collect);
    auto buf = dev.alloc<float>(16);
    const auto kind = expect_san_error([&] {
        dev.launch("oob_ld", {.grid_dim = 1, .block_dim = 32}, [&](simt::BlockCtx& blk) {
            // BROKEN ON PURPOSE: index == size.
            (void)blk.ld(buf.span(), buf.size());
        });
    });
    EXPECT_EQ(kind, simt::ViolationKind::global_oob);
}

TEST(SimTSan, WarpLoadBeyondSpanIsOob) {
    auto dev = make_strict();
    dev.set_sanitizer(simt::SanMode::strict);
    auto big = dev.alloc<float>(64);
    auto small = dev.alloc<float>(8);
    const auto kind = expect_san_error([&] {
        dev.launch("oob_warp_load", {.grid_dim = 1, .block_dim = 32}, [&](simt::BlockCtx& blk) {
            blk.warp_tiles(big.size(), [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                float regs[simt::kWarpSize];
                // BROKEN ON PURPOSE: tile base sized for `big`, span is `small`.
                w.load(std::span<const float>(small.span()), base, regs);
            });
        });
    });
    EXPECT_EQ(kind, simt::ViolationKind::global_oob);
}

TEST(SimTSan, SharedOobThrows) {
    auto dev = make_strict();
    dev.set_sanitizer(simt::SanMode::strict);
    const auto kind = expect_san_error([&] {
        dev.launch("oob_sh", {.grid_dim = 1, .block_dim = 32}, [&](simt::BlockCtx& blk) {
            auto sh = blk.shared_array<std::int32_t>(8);
            // BROKEN ON PURPOSE: one past the end of the shared array.
            blk.shared_st(sh, 8, 1);
        });
    });
    EXPECT_EQ(kind, simt::ViolationKind::shared_oob);
}

// ---- uninitialized reads of pool poison ------------------------------------

TEST(SimTSan, DetectsReadOfPoisonedPoolCheckout) {
    auto dev = make_strict();
    dev.set_sanitizer(simt::SanMode::strict);
    auto buf = dev.pooled<std::int32_t>(64);  // not zeroed: poison-filled
    const auto kind = expect_san_error([&] {
        dev.launch("uninit_ld", {.grid_dim = 1, .block_dim = 32}, [&](simt::BlockCtx& blk) {
            // BROKEN ON PURPOSE: read before any instrumented write.
            (void)blk.ld(buf.span(), 0);
        });
    });
    EXPECT_EQ(kind, simt::ViolationKind::uninit_read);
}

TEST(SimTSan, WriteThenReadOfPoolCheckoutIsClean) {
    auto dev = make_strict();
    dev.set_sanitizer(simt::SanMode::strict);
    auto buf = dev.pooled<std::int32_t>(64);
    EXPECT_NO_THROW(dev.launch(
        "init_then_ld", {.grid_dim = 1, .block_dim = 32}, [&](simt::BlockCtx& blk) {
            blk.st(buf.span(), 0, 123);
            EXPECT_EQ(blk.ld(buf.span(), 0), 123);
        }));
}

TEST(SimTSan, ZeroedPoolCheckoutIsClean) {
    auto dev = make_strict();
    dev.set_sanitizer(simt::SanMode::strict);
    auto buf = dev.pooled<std::int32_t>(64, /*stream=*/0, /*zeroed=*/true);
    EXPECT_NO_THROW(dev.launch(
        "zeroed_ld", {.grid_dim = 1, .block_dim = 32}, [&](simt::BlockCtx& blk) {
            EXPECT_EQ(blk.ld(buf.span(), 5), 0);
        }));
}

// ---- canary guard bands -----------------------------------------------------

TEST(SimTSan, DetectsCanaryClobberAtLaunchEnd) {
    auto dev = make_strict();
    dev.set_sanitizer(simt::SanMode::strict);
    auto buf = dev.alloc<float>(16);
    // BROKEN ON PURPOSE: a raw pointer write one past the user region --
    // exactly the kind of access the checked accessors would have rejected.
    buf.data()[buf.size()] = 1.0f;
    const auto kind = expect_san_error([&] {
        dev.launch("noop", {.grid_dim = 1, .block_dim = 32},
                   [](simt::BlockCtx& blk) { blk.charge_instr(1); });
    });
    EXPECT_EQ(kind, simt::ViolationKind::canary);
}

TEST(SimTSan, RecordsCanaryClobberAtBufferDestruction) {
    auto dev = make_strict();
    dev.set_sanitizer(simt::SanMode::collect);
    {
        auto buf = dev.alloc<float>(16);
        buf.data()[buf.size()] = 1.0f;  // BROKEN ON PURPOSE
    }  // unregister_region sweeps the canaries (record-only)
    ASSERT_NE(dev.sanitizer(), nullptr);
    const auto vs = dev.sanitizer()->violations();
    ASSERT_FALSE(vs.empty());
    EXPECT_EQ(vs.front().kind, simt::ViolationKind::canary);
}

// ---- collect mode -----------------------------------------------------------

TEST(SimTSan, CollectModeRecordsAndContinues) {
    auto dev = make_strict();
    dev.set_sanitizer(simt::SanMode::collect);
    auto buf = dev.alloc<std::int32_t>(8);
    EXPECT_NO_THROW(dev.launch(
        "ww_race_collect", {.grid_dim = 4, .block_dim = 32}, [&](simt::BlockCtx& blk) {
            blk.st(buf.span(), 0, blk.block_idx());  // BROKEN ON PURPOSE
        }));
    ASSERT_NE(dev.sanitizer(), nullptr);
    EXPECT_GE(dev.sanitizer()->total_violations(), 3u);  // blocks 1..3 conflict
    const auto vs = dev.sanitizer()->violations();
    ASSERT_FALSE(vs.empty());
    EXPECT_EQ(vs.front().kind, simt::ViolationKind::global_race);
    EXPECT_EQ(vs.front().kernel, "ww_race_collect");
    EXPECT_EQ(vs.front().primitive, "st");
    dev.sanitizer()->clear();
    EXPECT_EQ(dev.sanitizer()->total_violations(), 0u);
    EXPECT_TRUE(dev.sanitizer()->violations().empty());
}

// ---- determinism: event counts are untouched --------------------------------

TEST(SimTSan, KernelEventCountsAreByteIdenticalUnderSan) {
    const auto data = uniform_floats(std::size_t{1} << 14);
    const std::size_t rank = data.size() / 2;
    const core::SampleSelectConfig cfg;

    simt::Device dev_off(simt::arch_v100());
    dev_off.set_sanitizer(simt::SanMode::off);
    const auto r_off = core::try_sample_select<float>(dev_off, data, rank, cfg).value();

    simt::Device dev_on(simt::arch_v100());
    dev_on.set_sanitizer(simt::SanMode::strict);
    const auto r_on = core::try_sample_select<float>(dev_on, data, rank, cfg).value();

    EXPECT_EQ(r_off.value, r_on.value);
    EXPECT_EQ(dev_off.launch_count(), dev_on.launch_count());
    // The golden contract: same counters, field for field.
    EXPECT_EQ(dev_off.counter_totals(), dev_on.counter_totals());
    ASSERT_NE(dev_on.sanitizer(), nullptr);
    EXPECT_GT(dev_on.sanitizer()->checks(), 0u) << "sanitizer never engaged";
    EXPECT_EQ(dev_on.sanitizer()->total_violations(), 0u);
}

// ---- Status-channel integration ---------------------------------------------

TEST(SimTSan, SanErrorSurfacesAsSanitizerViolationStatus) {
    auto dev = make_strict();
    const core::SampleSelectConfig cfg;
    core::PipelineContext ctx(dev, cfg);
    const core::Status s = core::with_fault_retry(ctx, [] {
        simt::SanViolation v;
        v.kind = simt::ViolationKind::global_race;
        v.kernel = "synthetic";
        v.primitive = "st";
        throw simt::SanError(std::move(v));
    });
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code, core::SelectError::sanitizer_violation);
    // Never retried: a sanitizer violation is a bug, not bad luck.
    EXPECT_EQ(dev.robustness().launch_retries, 0u);
}

TEST(SimTSan, BrokenKernelUnderPipelineReportsTypedStatus) {
    auto dev = make_strict();
    dev.set_sanitizer(simt::SanMode::strict);
    auto buf = dev.alloc<std::int32_t>(8);
    const core::SampleSelectConfig cfg;
    core::PipelineContext ctx(dev, cfg);
    const core::Status s = core::with_fault_retry(ctx, [&] {
        dev.launch("pipeline_race", {.grid_dim = 2, .block_dim = 32},
                   [&](simt::BlockCtx& blk) { blk.st(buf.span(), 0, blk.block_idx()); });
    });
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code, core::SelectError::sanitizer_violation);
}

// ---- tracker underflow (PR 3 satellite: typed report, no bare assert) -------

TEST(AllocationTracker, RecordsUnderflowInsteadOfAsserting) {
    simt::AllocationTracker t;
    t.on_alloc(16);
    t.on_free(32);  // BROKEN ON PURPOSE: credits back more than in use
    EXPECT_EQ(t.underflow_count(), 1u);
    EXPECT_FALSE(t.underflow_note().empty());
    EXPECT_EQ(t.current(), 0u);
}

TEST(AllocationTracker, UnderflowSurfacesThroughStatusChannel) {
    auto dev = make_strict();
    const core::SampleSelectConfig cfg;
    core::PipelineContext ctx(dev, cfg);
    const core::Status s = core::with_fault_retry(
        ctx, [&] { dev.tracker().on_free(std::size_t{1} << 40); });
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code, core::SelectError::internal);
}

}  // namespace
