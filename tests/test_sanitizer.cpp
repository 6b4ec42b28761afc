// Tests for SimTSan (simt/sanitizer.hpp): every contract-violation class is
// exercised by a deliberately broken micro-kernel and must be detected with
// the right ViolationKind, strict mode must throw at the detection point,
// collect mode must record and keep running, and -- the determinism
// contract -- enabling the sanitizer must leave kernel event counts
// byte-identical (docs/static_analysis.md).  Also covers the checking layer
// SimTSan shares with StreamSan (simt/analyzer.hpp): the mode grammar, the
// region table, and the one check every global-memory primitive calls.

#include "simt/sanitizer.hpp"

#include <gtest/gtest.h>

#include <barrier>
#include <cstddef>
#include <cstdint>
#include <new>
#include <ostream>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "core/sample_select.hpp"
#include "core/status.hpp"
#include "mode_grammar.hpp"
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
    testenv::expect_mode_grammar("GPUSEL_SAN");
}

// ---- region table (simt/analyzer.hpp) ---------------------------------------

struct TestRegion {
    std::uintptr_t base = 0;
    std::size_t bytes = 0;
    int tag = 0;
};
using TestTable = simt::RegionTable<TestRegion>;
constexpr std::size_t kWord = sizeof(std::int32_t);

TEST(RegionTable, FindsTheContainingRegion) {
    std::vector<std::int32_t> mem(64);
    TestTable t;
    t.insert(mem.data(), 16 * kWord).tag = 7;
    const TestRegion* r = t.find(mem.data() + 3, kWord);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->tag, 7);
    EXPECT_EQ(t.find(mem.data() + 3, kWord), r);  // the cached answer
    EXPECT_EQ(t.find(mem.data(), 16 * kWord), r);
    EXPECT_EQ(t.find(mem.data() + 15, 2 * kWord), nullptr);  // straddles the end
    EXPECT_EQ(t.find(mem.data() + 20, kWord), nullptr);      // in the gap after it
    EXPECT_EQ(t.at(mem.data()), r);
}

TEST(RegionTable, CachedGapDoesNotHideALaterRegion) {
    std::vector<std::int32_t> mem(64);
    TestTable t;
    EXPECT_EQ(t.find(mem.data() + 8, kWord), nullptr);  // caches the gap around it
    t.insert(mem.data(), mem.size() * kWord).tag = 1;
    const TestRegion* r = t.find(mem.data() + 8, kWord);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->tag, 1);
}

TEST(RegionTable, EraseLeavesNoDanglingEntry) {
    std::vector<std::int32_t> mem(64);
    TestTable t;
    t.insert(mem.data(), mem.size() * kWord);
    ASSERT_NE(t.find(mem.data(), kWord), nullptr);  // now cached on this thread
    t.erase(mem.data());
    EXPECT_EQ(t.find(mem.data(), kWord), nullptr);
    EXPECT_EQ(t.at(mem.data()), nullptr);
    EXPECT_EQ(t.size(), 0u);
}

TEST(RegionTable, TableRebuiltAtARecycledAddressStartsCold) {
    // The reason generations are drawn process-wide: a second table at the
    // first one's address, after as many mutations, must not revalidate
    // the first one's thread-local entries.
    std::vector<std::int32_t> mem(64);
    std::vector<std::int32_t> other(64);
    alignas(TestTable) std::byte storage[sizeof(TestTable)];
    auto* first = new (storage) TestTable;
    first->insert(mem.data(), mem.size() * kWord).tag = 1;
    ASSERT_NE(first->find(mem.data(), kWord), nullptr);
    first->~TestTable();
    auto* second = new (storage) TestTable;
    second->insert(other.data(), other.size() * kWord).tag = 2;
    EXPECT_EQ(second->find(mem.data(), kWord), nullptr);
    second->~TestTable();
}

TEST(RegionTable, AnotherThreadSeesTheCurrentMap) {
    std::vector<std::int32_t> mem(64);
    TestTable t;
    std::barrier<> step(2);
    bool before = true;
    bool during = false;
    bool after = true;
    std::thread worker([&] {
        before = t.find(mem.data(), kWord) != nullptr;  // caches a gap on the worker
        step.arrive_and_wait();
        step.arrive_and_wait();  // the main thread inserted in between
        during = t.find(mem.data(), kWord) != nullptr;
        step.arrive_and_wait();
        step.arrive_and_wait();  // the main thread erased in between
        after = t.find(mem.data(), kWord) != nullptr;
    });
    step.arrive_and_wait();
    t.insert(mem.data(), mem.size() * kWord);
    step.arrive_and_wait();
    step.arrive_and_wait();
    t.erase(mem.data());
    step.arrive_and_wait();
    worker.join();
    EXPECT_FALSE(before);
    EXPECT_TRUE(during);
    EXPECT_FALSE(after);
}

// ---- analyzer lifetime ------------------------------------------------------

TEST(SimTSan, ReplacingWhileABufferIsLiveThrows) {
    auto dev = make_strict();
    dev.set_sanitizer(simt::SanMode::strict);
    {
        auto buf = dev.alloc<float>(64);
        // The buffer unregisters from the sanitizer it registered with, so
        // destroying that sanitizer now would leave it a dangling pointer.
        EXPECT_THROW(dev.set_sanitizer(simt::SanMode::off), std::logic_error);
        EXPECT_NE(dev.sanitizer(), nullptr);
    }
    EXPECT_NO_THROW(dev.set_sanitizer(simt::SanMode::off));
    EXPECT_EQ(dev.sanitizer(), nullptr);
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

// ---- the grid epilogue: after every block, inside the launch ---------------

/// A launch over `grid` blocks with `body` and `epilogue`, run inline and on
/// two host workers; returns the violations each device recorded.
template <typename Body, typename Epilogue>
std::vector<std::uint64_t> epilogue_violations(int grid, Body&& body, Epilogue&& epilogue) {
    std::vector<std::uint64_t> totals;
    for (const unsigned workers : {0u, 2u}) {
        simt::Device dev(simt::arch_v100(), {.host_workers = workers});
        dev.set_sanitizer(simt::SanMode::collect);
        auto buf = dev.alloc<std::int32_t>(static_cast<std::size_t>(grid));
        dev.launch(
            "epilogue", {.grid_dim = grid, .block_dim = 32},
            [&](simt::BlockCtx& blk) { body(blk, buf.span()); },
            [&](simt::BlockCtx& blk) { epilogue(blk, buf.span()); });
        totals.push_back(dev.sanitizer()->total_violations());
        EXPECT_GT(dev.sanitizer()->checks(), 0u);
    }
    return totals;
}

TEST(SimTSan, EpilogueLeavesBodyRacesRacy) {
    // BROKEN ON PURPOSE: block 1 reads block 0's plain store in the body.
    // The epilogue orders nothing between the grid's own blocks.
    const auto v = epilogue_violations(
        2,
        [](simt::BlockCtx& blk, std::span<std::int32_t> buf) {
            if (blk.block_idx() == 0) {
                blk.st(buf, 0, 7);
            } else {
                (void)blk.ld(buf, 0);
            }
        },
        [](simt::BlockCtx& blk, std::span<std::int32_t> buf) { (void)blk.ld(buf, 0); });
    // Inline, block 1 always runs second and sees block 0's cell.  On host
    // workers the two blocks may check their cells before either stores,
    // the race SimTSan's concurrent mode may miss (never invent).
    EXPECT_EQ(v.front(), 1u);
    EXPECT_LE(v.back(), 1u);
}

TEST(SimTSan, EpilogueReadsEveryBlocksStoreCleanly) {
    // The same cross-block read, moved into the epilogue: it runs after
    // every block of the grid, so no store of the body races it.
    const auto v = epilogue_violations(
        4, [](simt::BlockCtx& blk, std::span<std::int32_t> buf) {
            blk.st(buf, static_cast<std::size_t>(blk.block_idx()), blk.block_idx());
        },
        [](simt::BlockCtx& blk, std::span<std::int32_t> buf) {
            std::int32_t sum = 0;
            for (std::size_t i = 0; i < buf.size(); ++i) sum += blk.ld(buf, i);
            EXPECT_EQ(sum, 0 + 1 + 2 + 3);
        });
    EXPECT_EQ(v, (std::vector<std::uint64_t>{0, 0}));
}

TEST(SimTSan, EpilogueStoreOverBodyReadsIsClean) {
    // Every block reads word 0; the epilogue then overwrites it.
    const auto v = epilogue_violations(
        4, [](simt::BlockCtx& blk, std::span<std::int32_t> buf) { (void)blk.ld(buf, 0); },
        [](simt::BlockCtx& blk, std::span<std::int32_t> buf) { blk.st(buf, 0, 42); });
    EXPECT_EQ(v, (std::vector<std::uint64_t>{0, 0}));
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

// ---- every global-memory primitive reaches both analyzers -------------------

/// One global-memory primitive, run by one block on element i of `buf`.
struct PrimitiveCase {
    const char* name;
    void (*touch)(simt::BlockCtx& blk, std::span<std::int32_t> buf, std::size_t i);
};

void PrintTo(const PrimitiveCase& c, std::ostream* os) { *os << c.name; }

/// Runs `f` on the block's one warp with a single active lane.
template <typename F>
void one_lane(simt::BlockCtx& blk, F&& f) {
    blk.each_warp(1, [&](simt::WarpCtx& w, int) { f(w); });
}

const PrimitiveCase kPrimitives[] = {
    {"ld", [](simt::BlockCtx& blk, std::span<std::int32_t> buf,
              std::size_t i) { (void)blk.ld(buf, i); }},
    {"st", [](simt::BlockCtx& blk, std::span<std::int32_t> buf,
              std::size_t i) { blk.st(buf, i, 1); }},
    {"load",
     [](simt::BlockCtx& blk, std::span<std::int32_t> buf, std::size_t i) {
         one_lane(blk, [&](simt::WarpCtx& w) {
             std::int32_t regs[simt::kWarpSize];
             w.load(std::span<const std::int32_t>(buf), i, regs);
         });
     }},
    {"store",
     [](simt::BlockCtx& blk, std::span<std::int32_t> buf, std::size_t i) {
         one_lane(blk, [&](simt::WarpCtx& w) {
             const std::int32_t regs[simt::kWarpSize] = {1};
             w.store(buf, i, regs);
         });
     }},
    {"gather",
     [](simt::BlockCtx& blk, std::span<std::int32_t> buf, std::size_t i) {
         one_lane(blk, [&](simt::WarpCtx& w) {
             const std::size_t idx[simt::kWarpSize] = {i};
             std::int32_t regs[simt::kWarpSize];
             w.gather(std::span<const std::int32_t>(buf), idx, regs);
         });
     }},
    {"scatter",
     [](simt::BlockCtx& blk, std::span<std::int32_t> buf, std::size_t i) {
         one_lane(blk, [&](simt::WarpCtx& w) {
             const std::int32_t idx[simt::kWarpSize] = {static_cast<std::int32_t>(i)};
             const std::int32_t regs[simt::kWarpSize] = {1};
             const bool active[simt::kWarpSize] = {true};
             (void)w.scatter(buf, idx, regs, active);
         });
     }},
    {"compress_store",
     [](simt::BlockCtx& blk, std::span<std::int32_t> buf, std::size_t i) {
         one_lane(blk, [&](simt::WarpCtx& w) {
             const std::int32_t regs[simt::kWarpSize] = {1};
             (void)w.compress_store(buf, i, 1u, regs);
         });
     }},
    {"compress_store_rev",
     [](simt::BlockCtx& blk, std::span<std::int32_t> buf, std::size_t i) {
         one_lane(blk, [&](simt::WarpCtx& w) {
             const std::int32_t regs[simt::kWarpSize] = {1};
             (void)w.compress_store_rev(buf, i, 1u, regs);
         });
     }},
    {"compress_gather_store",
     [](simt::BlockCtx& blk, std::span<std::int32_t> buf, std::size_t i) {
         // Reads buf[i]; the destination is an untracked local.
         one_lane(blk, [&](simt::WarpCtx& w) {
             std::int32_t out[1];
             (void)w.compress_gather_store(std::span<std::int32_t>(out), 0,
                                           std::span<const std::int32_t>(buf), i, 1u);
         });
     }},
    {"atomic_add",
     [](simt::BlockCtx& blk, std::span<std::int32_t> buf, std::size_t i) {
         one_lane(blk, [&](simt::WarpCtx& w) {
             const std::int32_t which[simt::kWarpSize] = {static_cast<std::int32_t>(i)};
             w.atomic_add(simt::AtomicSpace::global, buf, which);
         });
     }},
    {"fetch_add",
     [](simt::BlockCtx& blk, std::span<std::int32_t> buf, std::size_t i) {
         one_lane(blk, [&](simt::WarpCtx& w) {
             const std::int32_t which[simt::kWarpSize] = {static_cast<std::int32_t>(i)};
             std::int32_t old[simt::kWarpSize];
             w.fetch_add(simt::AtomicSpace::global, buf, which, old, /*aggregated=*/false,
                         /*index_bits=*/0);
         });
     }},
};

/// A device with both analyzers in collect mode.
class PrimitiveReachesBothAnalyzers : public ::testing::TestWithParam<PrimitiveCase> {
protected:
    PrimitiveReachesBothAnalyzers() {
        dev.set_sanitizer(simt::SanMode::collect);
        dev.set_stream_sanitizer(simt::SanMode::collect);
    }
    simt::Device dev{simt::arch_v100()};
    static constexpr std::size_t kElem = 5;
};

TEST_P(PrimitiveReachesBothAnalyzers, CrossBlockPairIsASimTSanRace) {
    auto buf = dev.alloc<std::int32_t>(16);
    const PrimitiveCase& c = GetParam();
    dev.launch("pair", {.grid_dim = 2, .block_dim = 32}, [&](simt::BlockCtx& blk) {
        // BROKEN ON PURPOSE: block 0's plain store and block 1's primitive
        // hit one element in one launch.
        if (blk.block_idx() == 0) {
            blk.st(buf.span(), kElem, 7);
        } else {
            c.touch(blk, buf.span(), kElem);
        }
    });
    const auto vs = dev.sanitizer()->violations();
    ASSERT_FALSE(vs.empty()) << c.name;
    EXPECT_EQ(vs.front().kind, simt::ViolationKind::global_race);
    EXPECT_EQ(vs.front().primitive, c.name);
    EXPECT_EQ(vs.front().offset, kElem * sizeof(std::int32_t));
    EXPECT_EQ(vs.front().block, 1);
    EXPECT_EQ(dev.stream_sanitizer()->total_hazards(), 0u);
}

TEST_P(PrimitiveReachesBothAnalyzers, UnorderedStreamPairIsAStreamSanHazard) {
    const int s1 = dev.create_stream();
    auto buf = dev.alloc<std::int32_t>(16);
    const PrimitiveCase& c = GetParam();
    dev.launch("plain_st", {.grid_dim = 1, .block_dim = 32, .stream = 0},
               [&](simt::BlockCtx& blk) { blk.st(buf.span(), kElem, 7); });
    // BROKEN ON PURPOSE: no event edge orders the two launches.
    dev.launch(c.name, {.grid_dim = 1, .block_dim = 32, .stream = s1},
               [&](simt::BlockCtx& blk) { c.touch(blk, buf.span(), kElem); });
    const auto hs = dev.stream_sanitizer()->hazards();
    ASSERT_FALSE(hs.empty()) << c.name;
    EXPECT_EQ(hs.front().kernel, c.name);
    EXPECT_EQ(hs.front().stream, s1);
    EXPECT_EQ(hs.front().other_stream, 0);
    EXPECT_EQ(hs.front().lo, kElem * sizeof(std::int32_t));
    EXPECT_EQ(hs.front().hi, (kElem + 1) * sizeof(std::int32_t));
    EXPECT_EQ(dev.sanitizer()->total_violations(), 0u);
}

TEST_P(PrimitiveReachesBothAnalyzers, OnePastTheSpanIsFatalOob) {
    auto buf = dev.alloc<std::int32_t>(16);
    const PrimitiveCase& c = GetParam();
    try {
        dev.launch("oob", {.grid_dim = 1, .block_dim = 32}, [&](simt::BlockCtx& blk) {
            c.touch(blk, buf.span(), buf.size());  // BROKEN ON PURPOSE
        });
        FAIL() << c.name << " did not throw";
    } catch (const simt::SanError& e) {
        EXPECT_EQ(e.violation().kind, simt::ViolationKind::global_oob);
        EXPECT_EQ(e.violation().primitive, c.name);
        EXPECT_EQ(e.violation().offset, buf.size());
        EXPECT_EQ(e.violation().block, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(Primitives, PrimitiveReachesBothAnalyzers,
                         ::testing::ValuesIn(kPrimitives),
                         [](const ::testing::TestParamInfo<PrimitiveCase>& p) {
                             return std::string(p.param.name);
                         });

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
