#pragma once
// SimTSan: shadow-memory race / contract sanitizer for the SIMT simulator.
//
// The simulator's correctness rests on the instrumentation contract spelled
// out in simt/block.hpp: all global-memory and atomic traffic flows through
// WarpCtx/BlockCtx primitives, blocks interact only through atomics, and
// sync() delimits shared-memory epochs.  Nothing in the fast path checks
// any of this -- a kernel that races across blocks or reads shared memory
// written by another warp without a barrier silently corrupts both results
// and the paper-reproduction counters.  SimTSan is the simulator's
// equivalent of compute-sanitizer/racecheck: an opt-in shadow-memory layer
// that validates every instrumented access.
//
// What it detects (ViolationKind):
//   * global_race   -- non-atomic W/W or R/W to the same 4-byte granule
//                      from two different blocks of the same launch, or an
//                      atomic mixed with a non-atomic access cross-block.
//                      Tracked via per-granule last-writer/last-reader
//                      cells tagged with (launch epoch, block id, atomic).
//   * shared_epoch  -- a shared-memory granule written by one warp and
//                      accessed by a different warp in the same barrier
//                      epoch (no intervening sync()), unless both sides
//                      are atomics.  Tracked per BlockCtx (simt/block.hpp).
//   * global_oob /  -- an instrumented primitive indexing outside its span.
//     shared_oob       OOB is always fatal (it would corrupt host memory),
//                      even in collect mode.
//   * uninit_read   -- a read of a pool checkout that was never written by
//                      an instrumented store and still carries the pool's
//                      0xA5 poison fill (simt/pool.hpp).  Both conditions
//                      are required, so host-side staging writes (which the
//                      shadow cannot see) do not false-positive.
//   * canary        -- a clobbered guard band: DeviceBuffer pads its user
//                      data with 0xC3-filled canary elements and the pool
//                      poisons the free tail of each block; plain
//                      uncounted span accesses that run past the user
//                      region trip the end-of-launch sweep.
//
// Modes (GPUSEL_SAN / Device::set_sanitizer, grammar in simt/analyzer.hpp):
//   strict  (GPUSEL_SAN=1)  -- throw SanError at the detection point; the
//            exception surfaces through the Status channel as
//            SelectError::sanitizer_violation.
//   collect (GPUSEL_SAN=2)  -- record violations and keep running (soak
//            mode); OOB still throws.
//
// Hook: the primitives do not call SimTSan directly.  Each one calls
// BlockCtx::check / check_lanes (simt/block.hpp) once per span it touches;
// that check bounds-checks (OOB is reported here, via oob()) and records
// the access with access() -- per access for contiguous spans, per lane
// for scattered ones -- before handing StreamSan its byte envelope.
//
// Concurrency: blocks of one launch run on the work-stealing thread pool,
// so with host workers shadow cells are touched through relaxed
// std::atomic_ref.  The region table (simt/analyzer.hpp) is only mutated
// on the host control thread between launches (the same discipline the
// memory pool documents), so kernel-side lookups need no lock.
//
// Determinism: SimTSan never touches KernelCounters -- event-count golden
// tests stay byte-identical with the sanitizer on or off.
//
// Performance: the check runs on every instrumented access, so the hot
// path is engineered for single-digit nanoseconds -- access() is
// header-inline with cold violation construction out-of-line, shadow
// cells are 4 bytes (16-bit epoch, cleared on wrap), region lookup goes
// through the region table's thread-local cache that also caches misses,
// and the hot path contains no LOCK-prefixed read-modify-writes.  The
// acceptance bound (<= 3x wall clock on a full selection,
// bench_simulator_overhead's san_slowdown_x counter) is what these
// choices buy.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "simt/analyzer.hpp"

namespace gpusel::simt {

/// Shadow granularity: one cell per 4-byte word, the "per-word" tracking
/// unit of the race detector.  All simulator element types are 1, 4 or 8
/// bytes and tile-aligned, so a granule never spans two lanes' elements.
inline constexpr std::size_t kSanGranule = 4;
/// Canary fill byte for DeviceBuffer guard bands and pool free tails.
inline constexpr std::byte kCanaryByte{0xC3};
/// Poison fill byte; must match the memory pool's GPUSEL_POOL_POISON fill.
inline constexpr std::byte kPoisonByte{0xA5};
/// Guard-band width (bytes) on each side of a DeviceBuffer's user data.
inline constexpr std::size_t kCanaryBytes = 64;

enum class ViolationKind {
    global_race,
    shared_epoch,
    global_oob,
    shared_oob,
    uninit_read,
    canary,
};

[[nodiscard]] std::string_view to_string(ViolationKind kind) noexcept;

/// One detected contract violation, with enough context to locate the bug:
/// which kernel, which primitive, which byte offset, which block.
struct SanViolation {
    ViolationKind kind{};
    std::string kernel;     ///< kernel name of the launch (empty outside one)
    std::string primitive;  ///< WarpCtx/BlockCtx primitive that tripped
    std::size_t offset = 0; ///< byte offset within the region / shared arena
    int block = -1;         ///< reporting block id (-1: end-of-launch sweep)
    std::string detail;     ///< human-readable specifics

    [[nodiscard]] std::string message() const;
};

/// Thrown at the detection point in strict mode (and for OOB in any mode).
/// Propagates out of kernel bodies via ThreadPool::parallel_for and is
/// mapped to SelectError::sanitizer_violation by the pipeline's retry
/// wrappers -- never retried, always surfaced.
class SanError : public std::runtime_error {
public:
    explicit SanError(SanViolation v) : std::runtime_error(v.message()), v_(std::move(v)) {}
    [[nodiscard]] const SanViolation& violation() const noexcept { return v_; }

private:
    SanViolation v_;
};

/// The sanitizer: region table + per-region shadow + violation log.
/// Owned by the Device; off means no Sanitizer at all, and the primitives
/// then pay one branch on BlockCtx's armed flag.
class Sanitizer {
public:
    /// `concurrent` declares whether block workers may touch shadow cells
    /// from more than one thread (Device passes host_workers != 0).  The
    /// serial case -- the default for tests and benchmarks -- takes a
    /// branchless, auto-vectorizable scan with no atomic_ref traffic;
    /// detection semantics are identical, races between *simulated* blocks
    /// are found either way.
    explicit Sanitizer(SanMode mode, bool concurrent = true)
        : mode_(mode), concurrent_(concurrent) {}
    Sanitizer(const Sanitizer&) = delete;
    Sanitizer& operator=(const Sanitizer&) = delete;

    [[nodiscard]] SanMode mode() const noexcept { return mode_; }
    [[nodiscard]] bool enabled() const noexcept { return mode_ != SanMode::off; }

    // ---- region registry (host control thread, between launches) ----------
    /// Registers a global-memory region for shadow tracking.  `mark_uninit`
    /// arms uninitialized-read detection (pool checkouts whose contents are
    /// poison, not zeroes).  The optional canary ranges are guard bands
    /// swept at end_launch() and at unregistration.
    void register_region(const void* base, std::size_t bytes, bool mark_uninit,
                         const void* canary_lo = nullptr, std::size_t canary_lo_bytes = 0,
                         const void* canary_hi = nullptr, std::size_t canary_hi_bytes = 0);
    /// Final canary sweep (record-only: unregistration happens in
    /// destructors, which must not throw) and shadow teardown.
    void unregister_region(const void* base) noexcept;
    /// Regions registered and not yet unregistered (live buffers and pool
    /// checkouts that hold on to this sanitizer).
    [[nodiscard]] std::size_t tracked_regions() const noexcept { return regions_.size(); }

    // ---- launch bracket (host control thread) ------------------------------
    /// Starts a new race-detection epoch; accesses from different blocks
    /// conflict only within one epoch (launches serialize on the host).
    void begin_launch(std::string_view kernel);
    /// Starts the current launch's grid epilogue (Device::launch) in an
    /// epoch of its own: it runs after every block of the grid, so none of
    /// the grid's accesses conflict with it.  Reports keep the kernel name.
    void begin_epilogue() { next_epoch(); }
    /// Sweeps every registered canary band; throws SanError in strict mode.
    void end_launch();

    // ---- kernel-side hooks (block worker threads) --------------------------
    /// Records one in-bounds global access of [p, p + bytes) by `block` in
    /// the shadow; reports races and uninitialized reads.  Defined inline
    /// below the class: it runs on every instrumented access and must
    /// inline into BlockCtx::check.
    void access(const void* p, std::size_t bytes, int block, const char* primitive, MemAccess a);

    /// Reports an out-of-span index on a primitive.  Always throws -- a
    /// clamped or skipped access would silently change kernel semantics.
    [[noreturn]] void oob(ViolationKind kind, const char* primitive, std::size_t index,
                          std::size_t size, int block);

    /// Records a violation detected by a caller-side shadow (the shared-
    /// memory epoch tracker in BlockCtx).  Throws in strict mode.
    void report(SanViolation v);

    // ---- results -----------------------------------------------------------
    /// Stored violations (at most ReportLog::kMaxStored; the total keeps
    /// counting).  Safe to read between launches.
    [[nodiscard]] std::vector<SanViolation> violations() const { return log_.stored(); }
    [[nodiscard]] std::uint64_t total_violations() const noexcept { return log_.total(); }
    /// Number of shadow checks performed (a liveness signal for tests).
    /// Deliberately approximate under concurrency: the hot path bumps it
    /// with a plain relaxed load+store rather than a LOCK-prefixed
    /// fetch_add, so concurrent block workers may drop counts.
    [[nodiscard]] std::uint64_t checks() const noexcept {
        return checks_.load(std::memory_order_relaxed);
    }
    void clear() {
        log_.clear();
        checks_.store(0, std::memory_order_relaxed);
    }

private:
    struct Region {
        std::uintptr_t base = 0;
        std::size_t bytes = 0;
        /// Per-granule last-writer / last-reader cells, packed as
        /// (launch_epoch:16) << 16 | (block+1):15 | atomic:1.  0 = never.
        /// 4-byte cells halve the shadow traffic of the per-access loop;
        /// the 16-bit epoch field is safe because begin_launch() wipes all
        /// shadows when it wraps, and block ids alias only past 32766
        /// blocks (far beyond any grid the simulator schedules).
        std::vector<std::uint32_t> writers;
        std::vector<std::uint32_t> readers;
        /// Per-granule "was written by an instrumented store" bitmap; only
        /// allocated when uninit detection is armed.
        std::vector<std::uint64_t> init_bits;
        bool track_uninit = false;
        std::uintptr_t canary_lo = 0;
        std::size_t canary_lo_bytes = 0;
        std::uintptr_t canary_hi = 0;
        std::size_t canary_hi_bytes = 0;
    };

    /// Relaxed load/store over shadow cells -- plain movs, no LOCK prefix.
    /// Two block threads may interleave on one cell; the worst case is a
    /// missed report of a race the schedule did not actually exhibit,
    /// never a false positive, because a cell is only ever compared
    /// against the *current* launch epoch.
    static std::uint32_t cell_load(std::uint32_t& cell) noexcept {
        return std::atomic_ref<std::uint32_t>(cell).load(std::memory_order_relaxed);
    }
    static void cell_store(std::uint32_t& cell, std::uint32_t v) noexcept {
        std::atomic_ref<std::uint32_t>(cell).store(v, std::memory_order_relaxed);
    }

    /// Cross-thread variant of the granule loop: per-cell relaxed
    /// atomic_ref traffic, reports inline.  Out-of-line -- the serial scan
    /// below is the path the acceptance benchmark runs.
    void access_atomic(Region& r, std::size_t g_first, std::size_t g_last, int block,
                       const char* primitive, MemAccess a, std::uint32_t self);
    /// Cold re-walk after the serial scan flagged a possible conflict:
    /// checks each granule precisely (atomic-vs-atomic exemption) and
    /// reports.  Check-only; the caller fills the cells afterwards.
    void conflict_walk(Region& r, std::size_t g_first, std::size_t g_last, int block,
                       const char* primitive, MemAccess a, std::uint32_t self);
    /// Serial read-side uninit sweep: word-wise over the init bitmap, so a
    /// fully-initialized tile costs one mask compare per 64 granules; a
    /// word with unset bits goes to the batched cold helper once, not to
    /// the per-granule slow path 64 times.
    void uninit_scan(Region& r, std::size_t g_first, std::size_t g_last, int block,
                     const char* primitive) {
        for (std::size_t w = g_first / 64; w <= g_last / 64; ++w) {
            const std::size_t lo = w == g_first / 64 ? g_first % 64 : 0;
            const std::size_t hi = w == g_last / 64 ? g_last % 64 : 63;
            const std::uint64_t need =
                (hi == 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << (hi + 1)) - 1) &
                ~((std::uint64_t{1} << lo) - 1);
            const std::uint64_t missing = need & ~r.init_bits[w];
            if (missing != 0) [[unlikely]] uninit_word_slow(r, w, missing, block, primitive);
        }
    }
    /// Serial write-side init marking: whole words at a time.
    static void init_mark(Region& r, std::size_t g_first, std::size_t g_last) {
        for (std::size_t w = g_first / 64; w <= g_last / 64; ++w) {
            const std::size_t lo = w == g_first / 64 ? g_first % 64 : 0;
            const std::size_t hi = w == g_last / 64 ? g_last % 64 : 63;
            r.init_bits[w] |= (hi == 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << (hi + 1)) - 1) &
                              ~((std::uint64_t{1} << lo) - 1);
        }
    }

    /// Cold path: unpacks the conflicting cell and reports a global_race.
    /// `other_is_writer` selects the last-writer vs last-reader wording.
    void report_conflict(std::size_t offset, int block, const char* primitive, MemAccess a,
                         std::uint32_t other, bool other_is_writer);
    /// Cold path for a read of a granule with no init bit set: confirms
    /// the pool poison is still there (reports) or latches the bit so
    /// re-reads of host-staged data skip the compare.
    void uninit_read_slow(Region& r, std::size_t g, int block, const char* primitive);
    /// Serial batch variant: handles all of one bitmap word's missing
    /// granules in a single call.  The common case -- host-staged real
    /// data, no poison left -- latches up to 64 bits with one plain OR.
    void uninit_word_slow(Region& r, std::size_t w, std::uint64_t missing, int block,
                          const char* primitive);

    /// `quick` bounds each band's scan to kQuickSweepBytes (the per-launch
    /// sweep); the full scan runs at unregistration.
    void sweep_canaries(const Region& r, bool allow_throw, bool quick = false);

    /// Per-band byte budget of the end-of-launch quick sweep.
    static constexpr std::size_t kQuickSweepBytes = 64;

    /// Mask of the (block+1) field inside a packed shadow cell.
    static constexpr std::uint32_t kCellBlockMask = 0x0000fffeu;

    [[nodiscard]] static std::uint32_t pack(std::uint32_t epoch, int block, bool atomic) noexcept {
        return ((epoch & 0xffffu) << 16) |
               ((static_cast<std::uint32_t>(block + 1) & 0x7fffu) << 1) | (atomic ? 1u : 0u);
    }

    /// Advances the launch epoch, wiping every shadow when its 16-bit
    /// field wraps.
    void next_epoch();

    SanMode mode_;
    bool concurrent_;             ///< shadow may be touched cross-thread
    RegionTable<Region> regions_;
    std::uint32_t epoch_ = 0;     ///< current launch (or epilogue) ordinal
    std::string kernel_;          ///< current launch's kernel name
    std::atomic<std::uint64_t> checks_{0};
    ReportLog<SanViolation> log_;
};

// ===== inline hot path =====================================================
// One branch per granule in the clean case; every violation construction
// lives out-of-line in sanitizer.cpp so this body stays small enough to
// inline into the BlockCtx/WarpCtx accessors.

inline void Sanitizer::access(const void* p, std::size_t bytes, int block, const char* primitive,
                              MemAccess a) {
    Region* r = regions_.find(p, bytes);
    if (r == nullptr) return;  // host vector or stack local: not tracked
    // Liveness counter, deliberately not a fetch_add: a LOCK-prefixed
    // increment per check would cost more than the shadow update itself.
    checks_.store(checks_.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    const std::size_t off = reinterpret_cast<std::uintptr_t>(p) - r->base;
    const std::size_t g_first = off / kSanGranule;
    const std::size_t g_last = (off + bytes - 1) / kSanGranule;
    const std::uint32_t self = pack(epoch_, block, a == MemAccess::atomic);
    if (concurrent_) {
        access_atomic(*r, g_first, g_last, block, primitive, a, self);
        return;
    }

    if (g_first == g_last) {
        // Scalar fast path: ~95% of checked traffic is BlockCtx::ld/st of
        // one element -- a single granule, so no fill loop and no bitmap
        // word-mask math, just one cell compare and one cell store.
        const std::uint32_t epoch_tag = self >> 16;
        const std::uint32_t w = r->writers[g_first];
        bool suspect = (w >> 16) == epoch_tag && ((w ^ self) & kCellBlockMask) != 0;
        if (a == MemAccess::read) {
            if (suspect) [[unlikely]] {
                conflict_walk(*r, g_first, g_first, block, primitive, a, self);
            }
            r->readers[g_first] = self;
            if (r->track_uninit) {
                const std::uint64_t bit = std::uint64_t{1} << (g_first % 64);
                if ((r->init_bits[g_first / 64] & bit) == 0) [[unlikely]] {
                    uninit_word_slow(*r, g_first / 64, bit, block, primitive);
                }
            }
        } else {
            const std::uint32_t rd = r->readers[g_first];
            suspect |= (rd >> 16) == epoch_tag && ((rd ^ self) & kCellBlockMask) != 0;
            if (suspect) [[unlikely]] {
                conflict_walk(*r, g_first, g_first, block, primitive, a, self);
            }
            r->writers[g_first] = self;
            if (r->track_uninit) r->init_bits[g_first / 64] |= std::uint64_t{1} << (g_first % 64);
        }
        return;
    }

    // Serial path: scan for possible conflicts branchlessly (the compiler
    // vectorizes these loops -- no atomic_ref, no early exits), then bulk-
    // fill the touched cells.  A flagged scan re-walks precisely out of
    // line before anything is overwritten, so reports match access_atomic.
    const std::uint32_t epoch_tag = self >> 16;
    std::uint32_t suspect = 0;
    if (a == MemAccess::read) {
        for (std::size_t g = g_first; g <= g_last; ++g) {
            const std::uint32_t w = r->writers[g];
            suspect |= static_cast<std::uint32_t>((w >> 16) == epoch_tag) &
                       static_cast<std::uint32_t>(((w ^ self) & kCellBlockMask) != 0);
        }
    } else {
        // Writes and atomics also conflict with a plain read by another
        // block, so both shadow planes are scanned.
        for (std::size_t g = g_first; g <= g_last; ++g) {
            const std::uint32_t w = r->writers[g];
            const std::uint32_t rd = r->readers[g];
            suspect |= (static_cast<std::uint32_t>((w >> 16) == epoch_tag) &
                        static_cast<std::uint32_t>(((w ^ self) & kCellBlockMask) != 0)) |
                       (static_cast<std::uint32_t>((rd >> 16) == epoch_tag) &
                        static_cast<std::uint32_t>(((rd ^ self) & kCellBlockMask) != 0));
        }
    }
    if (suspect != 0) [[unlikely]] {
        conflict_walk(*r, g_first, g_last, block, primitive, a, self);
    }
    if (a == MemAccess::read) {
        std::fill(r->readers.begin() + static_cast<std::ptrdiff_t>(g_first),
                  r->readers.begin() + static_cast<std::ptrdiff_t>(g_last) + 1, self);
        if (r->track_uninit) uninit_scan(*r, g_first, g_last, block, primitive);
    } else {
        std::fill(r->writers.begin() + static_cast<std::ptrdiff_t>(g_first),
                  r->writers.begin() + static_cast<std::ptrdiff_t>(g_last) + 1, self);
        if (r->track_uninit) init_mark(*r, g_first, g_last);
    }
}

}  // namespace gpusel::simt
