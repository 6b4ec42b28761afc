#pragma once
// Block and warp execution contexts of the SIMT simulator.
//
// A kernel is a callable `void(BlockCtx&)`.  The Device invokes it once per
// thread block of the launch grid.  Inside a block, kernels are written in
// *warp-vectorized* style: instead of per-thread control flow, warp-wide
// primitives operate on per-lane register arrays (T regs[kWarpSize]).  This
// mirrors how the paper's CUDA kernels behave (warp-synchronous phases,
// ballots, shared-memory histograms) while keeping simulation cost at a
// small constant factor over the raw data pass.
//
// Execution of one block is sequential on one host thread, so shared-memory
// operations need no synchronization; `sync()` only records the barrier
// event for the timing model.  Blocks of one launch may run concurrently on
// a host thread pool; they interact only through global-memory atomics,
// which are implemented with std::atomic_ref.
//
// Instrumentation contract: every primitive both *performs* the operation
// and *counts* it.  Kernels must route all global-memory and atomic traffic
// through these primitives; plain reads of captured spans are reserved for
// setup/debug code paths and bench-harness validation.  The contract is
// enforced two ways: statically by tools/lint_kernels.py (raw subscripts
// and naked atomics inside kernel lambdas are build errors) and dynamically
// by SimTSan (simt/sanitizer.hpp), which shadow-checks every primitive for
// cross-block races, shared-memory epoch violations, OOB, uninitialized
// reads and canary clobbers.  Per-element traffic that is charged in bulk
// (block-sequential publish loops, staged shared data) goes through the
// *uncharged* checked accessors ld/st/shared_ld/shared_st below, so event
// counts stay byte-identical with the sanitizer on or off.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "simt/arch.hpp"
#include "simt/counters.hpp"
#include "simt/sanitizer.hpp"
#include "simt/simd.hpp"
#include "simt/streamsan.hpp"

namespace gpusel::simt {

class BlockCtx;

/// Which memory space an atomic counter lives in (Sec. IV-G of the paper).
enum class AtomicSpace { shared, global };

/// Warp-wide execution context: lockstep operations over up to 32 lanes.
class WarpCtx {
public:
    WarpCtx(BlockCtx& blk, int active_lanes) noexcept : blk_(&blk), lanes_(active_lanes) {}

    [[nodiscard]] int lanes() const noexcept { return lanes_; }
    [[nodiscard]] BlockCtx& block() const noexcept { return *blk_; }

    // ---- global memory ---------------------------------------------------
    /// Coalesced tile load: regs[l] = src[base + l] for all active lanes.
    template <typename T>
    void load(std::span<const T> src, std::size_t base, T* regs) const;
    /// Coalesced tile store: dst[base + l] = regs[l].
    template <typename T>
    void store(std::span<T> dst, std::size_t base, const T* regs) const;
    /// Scattered gather: regs[l] = src[idx[l]].
    template <typename T>
    void gather(std::span<const T> src, const std::size_t* idx, T* regs) const;
    /// Scattered store: dst[idx[l]] = regs[l] for the lanes whose active[l]
    /// is set.  Counts as scattered write traffic; for offsets that
    /// genuinely interleave (several buckets' cursors in one warp), where no
    /// compress-store tile applies.  Returns the count written.
    template <typename T>
    int scatter(std::span<T> dst, const std::int32_t* idx, const T* regs,
                const bool* active) const;
    /// Compacted store on the SIMD compress-store engine: lanes whose mask
    /// bit is set write regs[l] to dst[pos], dst[pos+1], ... in lane order
    /// (one vcompressps-style tile op instead of a per-lane loop).  Counts
    /// as coalesced traffic (consecutive addresses within the warp);
    /// returns the count written.
    template <typename T>
    int compress_store(std::span<T> dst, std::size_t pos, std::uint32_t mask, const T* regs) const;
    /// Reversed variant for the right side of a bipartition: selected
    /// lanes land at dst[pos_hi], dst[pos_hi - 1], ... in lane order.
    template <typename T>
    int compress_store_rev(std::span<T> dst, std::size_t pos_hi, std::uint32_t mask,
                           const T* regs) const;
    /// Fused scattered-gather + compacted store: lanes whose mask bit is
    /// set re-read src[src_base + l] (scattered-read traffic, matching the
    /// filter kernels' second data pass) and write the values to
    /// consecutive slots starting at dst[pos].  Returns the count written.
    template <typename T>
    int compress_gather_store(std::span<T> dst, std::size_t pos, std::span<const T> src,
                              std::size_t src_base, std::uint32_t mask) const;

    // ---- histogram atomics (count kernel, Fig. 4 / Fig. 6) ----------------
    /// Per-lane atomicAdd(counters[bucket[l]], val): one atomic per active
    /// lane; intra-warp same-address conflicts are counted as collisions.
    void atomic_add(AtomicSpace space, std::span<std::int32_t> counters,
                    const std::int32_t* bucket, std::int32_t val = 1) const;
    /// Warp-aggregated variant (Fig. 6): `index_bits` ballot rounds compute
    /// the same-bucket lane masks, then the leader of each group issues a
    /// single atomic.  No collisions by construction.
    void atomic_add_aggregated(AtomicSpace space, std::span<std::int32_t> counters,
                               const std::int32_t* bucket, int index_bits,
                               std::int32_t val = 1) const;

    // ---- offset allocation (filter / bipartition write positions) ---------
    /// Per-lane fetch_add on one of several counters selected by which[l];
    /// old values are returned in old_out[l].  `aggregated` uses
    /// `index_bits` ballots and one atomic per distinct counter, assigning
    /// lane-ordered sub-offsets; otherwise one atomic per lane with
    /// collision accounting.
    void fetch_add(AtomicSpace space, std::span<std::int32_t> counters, const std::int32_t* which,
                   std::int32_t* old_out, bool aggregated, int index_bits,
                   const bool* active = nullptr) const;

    // ---- bookkeeping helpers ----------------------------------------------
    /// Charges shared-memory traffic (bytes) performed by lane-local code.
    void touch_shared(std::uint64_t bytes) const;
    /// Charges abstract ALU work.
    void add_instr(std::uint64_t n) const;

private:
    /// SimTSan prologue for the atomic primitives: bounds-checks every
    /// active lane's target and records the atomic in the global or shared
    /// shadow.  No-op without an active sanitizer.
    void san_check_targets(AtomicSpace space, std::span<std::int32_t> counters,
                           const std::int32_t* which, const bool* active,
                           const char* primitive) const;

    BlockCtx* blk_;
    int lanes_;
};

/// Per-block execution context.
class BlockCtx {
public:
    BlockCtx(const ArchSpec& arch, int block_idx, int grid_dim, int block_dim,
             std::size_t shared_limit, Sanitizer* san = nullptr, StreamSan* ssan = nullptr);
    ~BlockCtx();

    BlockCtx(const BlockCtx&) = delete;
    BlockCtx& operator=(const BlockCtx&) = delete;

    [[nodiscard]] int block_idx() const noexcept { return block_idx_; }
    [[nodiscard]] int grid_dim() const noexcept { return grid_dim_; }
    [[nodiscard]] int block_dim() const noexcept { return block_dim_; }
    [[nodiscard]] int warps_per_block() const noexcept { return block_dim_ / kWarpSize; }
    [[nodiscard]] const ArchSpec& arch() const noexcept { return arch_; }
    [[nodiscard]] KernelCounters& counters() noexcept { return counters_; }

    // ---- shared memory -----------------------------------------------------
    /// Bump-allocates an array of `n` Ts in block shared memory.  Throws
    /// std::runtime_error if the block's shared-memory capacity (the
    /// ArchSpec limit) would be exceeded -- this enforces the paper's
    /// constraint that e.g. approximate selection is limited to b <= 1024
    /// buckets on hardware with small shared memory.
    template <typename T>
    std::span<T> shared_array(std::size_t n);
    [[nodiscard]] std::size_t shared_bytes_used() const noexcept { return shared_used_; }

    /// Block-wide barrier (__syncthreads).  Sequential execution makes this
    /// a pure timing event.
    void sync() noexcept { ++counters_.block_barriers; }

    // ---- warp iteration -----------------------------------------------------
    /// Grid-stride iteration over [0, n) in tiles of `tile` elements
    /// (tile must be a multiple of kWarpSize; it is kWarpSize * unroll for
    /// unrolled kernels).  Invokes fn(WarpCtx&, base, count) for every tile
    /// owned by this block's warps.
    template <typename F>
    void warp_tiles(std::size_t n, std::size_t tile, F&& fn);

    /// Convenience: single-warp tiles.
    template <typename F>
    void warp_tiles(std::size_t n, F&& fn) {
        warp_tiles(n, static_cast<std::size_t>(kWarpSize), std::forward<F>(fn));
    }

    /// Block-local iteration over [0, n): only this block's warps stride
    /// the range (for kernels where each block owns a private index space,
    /// e.g. one sequence per block in batched selection).
    template <typename F>
    void warp_tiles_local(std::size_t n, F&& fn);

    // ---- direct charge helpers (for block-sequential phases such as
    //      prefix sums over shared arrays) ---------------------------------
    void charge_shared(std::uint64_t bytes) noexcept { counters_.shared_bytes_accessed += bytes; }
    void charge_instr(std::uint64_t n) noexcept { counters_.instructions += n; }
    void charge_global_read(std::uint64_t bytes) noexcept { counters_.global_bytes_read += bytes; }
    void charge_global_write(std::uint64_t bytes) noexcept {
        counters_.global_bytes_written += bytes;
    }

    // ---- checked element accessors (SimTSan) -------------------------------
    // Uncharged single-element access for code whose traffic is charged in
    // bulk (publish loops, staging copies, pivots).  With the sanitizer off
    // these compile down to the plain subscript they replace; with it on
    // they bounds-check the span and update the global or shared shadow.
    // Counters are never touched, preserving event-count golden identity.

    /// Checked global-memory read: src[i].
    template <typename T>
    [[nodiscard]] T ld(std::span<const T> src, std::size_t i) {
        if (san_ != nullptr) {
            if (i >= src.size()) {
                san_->oob(ViolationKind::global_oob, "ld", i, src.size(), block_idx_);
            }
            san_->global_read(src.data() + i, sizeof(T), block_idx_, "ld");
        }
        // Bounds-guarded: OOB reporting is SimTSan's job, StreamSan only
        // folds in-bounds traffic into the launch read/write set.
        if (ssan_ != nullptr && i < src.size()) {
            ssan_note_elem(src.data(), src.size() * sizeof(T), src.data() + i, sizeof(T),
                           /*write=*/false);
        }
        return src[i];
    }
    template <typename T>
    [[nodiscard]] T ld(std::span<T> src, std::size_t i) {
        return ld(std::span<const T>(src), i);
    }

    /// Checked global-memory write: dst[i] = v.
    template <typename T, typename U>
    void st(std::span<T> dst, std::size_t i, const U& v) {
        if (san_ != nullptr) {
            if (i >= dst.size()) {
                san_->oob(ViolationKind::global_oob, "st", i, dst.size(), block_idx_);
            }
            san_->global_write(dst.data() + i, sizeof(T), block_idx_, "st");
        }
        if (ssan_ != nullptr && i < dst.size()) {
            ssan_note_elem(dst.data(), dst.size() * sizeof(T), dst.data() + i, sizeof(T),
                           /*write=*/true);
        }
        dst[i] = v;
    }

    /// Checked shared-memory read: sh[i].  Records the access against the
    /// warp/barrier-epoch shadow (a read of a word written by a different
    /// warp in the same epoch is a shared_epoch violation).
    template <typename T>
    [[nodiscard]] T shared_ld(std::span<const T> sh, std::size_t i) {
        if (san_ != nullptr) {
            if (i >= sh.size()) {
                san_->oob(ViolationKind::shared_oob, "shared_ld", i, sh.size(), block_idx_);
            }
            shared_access(sh.data() + i, sizeof(T), /*is_write=*/false, /*is_atomic=*/false,
                          "shared_ld");
        }
        return sh[i];
    }
    template <typename T>
    [[nodiscard]] T shared_ld(std::span<T> sh, std::size_t i) {
        return shared_ld(std::span<const T>(sh), i);
    }

    /// Checked shared-memory write: sh[i] = v.
    template <typename T, typename U>
    void shared_st(std::span<T> sh, std::size_t i, const U& v) {
        if (san_ != nullptr) {
            if (i >= sh.size()) {
                san_->oob(ViolationKind::shared_oob, "shared_st", i, sh.size(), block_idx_);
            }
            shared_access(sh.data() + i, sizeof(T), /*is_write=*/true, /*is_atomic=*/false,
                          "shared_st");
        }
        sh[i] = v;
    }

    /// Counts distinct values among idx[0..n); used for collision
    /// accounting.  Values must be < universe registered via
    /// ensure_scratch(universe).
    [[nodiscard]] int distinct(const std::int32_t* idx, int n, std::size_t universe);

private:
    friend class WarpCtx;

    /// SimTSan shared-memory shadow update.  Pointers outside the block's
    /// shared arena (stack-local cursors used with AtomicSpace::shared) are
    /// skipped.  Only call with san_ != nullptr.  Inline: this runs on
    /// every shared_ld/shared_st and must vanish into the accessor; the
    /// violation construction is out-of-line in block.cpp.
    void shared_access(const void* p, std::size_t bytes, bool is_write, bool is_atomic,
                       const char* primitive) {
        // Outside the arena there is no shadow to consult: the pointer is a
        // stack-local (e.g. a cursor used with AtomicSpace::shared) and
        // cannot be shared across warps in a way the epoch model cares
        // about.
        const auto* bp = static_cast<const std::byte*>(p);
        if (shared_mem_ == nullptr || bp < shared_mem_ || bp + bytes > shared_mem_ + shared_used_) {
            return;
        }
        const auto off = static_cast<std::size_t>(bp - shared_mem_);
        const std::size_t g_last = (off + bytes - 1) / kSanGranule;
        if (sh_shadow_.size() <= g_last) [[unlikely]] sh_shadow_.resize(g_last + 1, 0);
        // Cell layout: (barrier_epoch+1):32 | (warp+2):8 | atomic:1.  A
        // zero cell means "never written"; +1/+2 biases keep real epoch 0
        // and the block-sequential phase (current_warp_ == -1)
        // distinguishable from it.
        const auto ep = static_cast<std::uint32_t>(counters_.block_barriers) + 1;
        const auto me = static_cast<std::uint32_t>(current_warp_ + 2);
        const std::uint64_t self = (static_cast<std::uint64_t>(ep) << 32) |
                                   (static_cast<std::uint64_t>(me) << 1) |
                                   static_cast<std::uint64_t>(is_atomic ? 1 : 0);
        for (std::size_t g = off / kSanGranule; g <= g_last; ++g) {
            const std::uint64_t cell = sh_shadow_[g];
            if (static_cast<std::uint32_t>(cell >> 32) == ep &&
                static_cast<std::uint32_t>((cell >> 1) & 0xffU) != me &&
                !((cell & 1U) != 0 && is_atomic)) [[unlikely]] {
                shared_conflict(g, is_write, is_atomic, primitive, cell);
            }
            if (is_write || is_atomic) sh_shadow_[g] = self;
        }
    }

    /// Batched shared_access for a warp's per-lane atomic targets inside
    /// one counter span: the arena-bounds test, the shadow sizing and the
    /// cell tag are hoisted out of the per-lane loop, which then touches
    /// exactly one 4-byte-element cell per active lane.  Callers must have
    /// range-checked `which` already (san_check_targets reports OOB, which
    /// always throws, before calling this).
    void shared_access_lanes(std::span<std::int32_t> counters, const std::int32_t* which,
                             const bool* active, int lanes, const char* primitive) {
        static_assert(sizeof(std::int32_t) == kSanGranule);
        const auto* bp = reinterpret_cast<const std::byte*>(counters.data());
        if (shared_mem_ == nullptr || bp < shared_mem_ ||
            bp + counters.size_bytes() > shared_mem_ + shared_used_) {
            return;
        }
        const auto g_base = static_cast<std::size_t>(bp - shared_mem_) / kSanGranule;
        const std::size_t g_max = g_base + counters.size() - 1;
        if (sh_shadow_.size() <= g_max) [[unlikely]] sh_shadow_.resize(g_max + 1, 0);
        const auto ep = static_cast<std::uint32_t>(counters_.block_barriers) + 1;
        const auto me = static_cast<std::uint32_t>(current_warp_ + 2);
        const std::uint64_t self = (static_cast<std::uint64_t>(ep) << 32) |
                                   (static_cast<std::uint64_t>(me) << 1) | std::uint64_t{1};
        for (int l = 0; l < lanes; ++l) {
            if (active != nullptr && !active[l]) continue;
            const std::size_t g = g_base + static_cast<std::size_t>(which[l]);
            const std::uint64_t cell = sh_shadow_[g];
            // Atomic-vs-atomic is exempt, so only a non-atomic cell (LSB 0)
            // by another warp in this epoch conflicts.
            if (static_cast<std::uint32_t>(cell >> 32) == ep &&
                static_cast<std::uint32_t>((cell >> 1) & 0xffU) != me &&
                (cell & 1U) == 0) [[unlikely]] {
                shared_conflict(g, /*is_write=*/true, /*is_atomic=*/true, primitive, cell);
            }
            sh_shadow_[g] = self;
        }
    }

    /// Cold path: builds and reports the shared_epoch violation for a
    /// same-epoch cross-warp cell conflict.
    void shared_conflict(std::size_t g, bool is_write, bool is_atomic, const char* primitive,
                         std::uint64_t cell);

    const ArchSpec& arch_;
    int block_idx_;
    int grid_dim_;
    int block_dim_;
    std::size_t shared_limit_;
    std::size_t shared_used_ = 0;
    /// Simulated shared-memory arena.  Normally a reused thread-local
    /// buffer (blocks are constructed and destroyed on the executing
    /// worker, and allocating + zeroing 48-96 KiB per block dominated
    /// small-kernel launches); falls back to a private allocation when a
    /// second BlockCtx is live on the same thread.  shared_array() zeroes
    /// the handed-out region, so kernels still observe zero-initialized
    /// shared memory either way.
    std::byte* shared_mem_ = nullptr;
    std::vector<std::byte> own_mem_;
    bool using_tl_arena_ = false;
    KernelCounters counters_;
    // epoch-marking scratch for distinct()/aggregation -- O(warp) per call;
    // slot_ maps a marked bucket to its group index within the current call.
    std::vector<std::uint32_t> mark_;
    std::vector<std::int32_t> slot_;
    std::uint32_t epoch_ = 0;
    // ---- SimTSan state ----------------------------------------------------
    Sanitizer* san_ = nullptr;
    /// StreamSan (simt/streamsan.hpp): per-launch read/write-set recording
    /// for cross-stream happens-before analysis; nullptr when off.
    StreamSan* ssan_ = nullptr;
    // Access coalescer: element/tile notes against the same span in the
    // same direction fold into a pending byte envelope, flushed on span
    // replacement and when the block retires.  StreamSan folds per-region
    // envelopes within a launch anyway, so coalescing is semantics-
    // preserving -- it only batches the fold.  Two slots per direction
    // cover the common kernel shapes (load src / store dst per tile, plus
    // one side table) without thrashing.
    struct SsanPend {
        std::uintptr_t span_lo = 0;  ///< span identity; 0 = empty slot
        std::uintptr_t span_hi = 0;
        std::uintptr_t lo = 1;  ///< pending byte range; lo > hi: none
        std::uintptr_t hi = 0;
    };
    SsanPend ssan_pend_[2][2];  ///< [write][slot]
    unsigned ssan_victim_[2] = {0, 0};

    void ssan_note_elem(const void* span_data, std::size_t span_bytes, const void* p,
                        std::size_t bytes, bool write) {
        const auto a = reinterpret_cast<std::uintptr_t>(p);
        const auto s = reinterpret_cast<std::uintptr_t>(span_data);
        SsanPend* row = ssan_pend_[write ? 1 : 0];
        for (int i = 0; i < 2; ++i) {
            SsanPend& e = row[i];
            if (e.span_lo == s && e.span_hi == s + span_bytes) [[likely]] {
                if (a < e.lo) e.lo = a;
                if (a + bytes > e.hi) e.hi = a + bytes;
                return;
            }
        }
        SsanPend& victim = row[ssan_victim_[write ? 1 : 0]++ & 1u];
        ssan_flush_one(victim, write);
        victim.span_lo = s;
        victim.span_hi = s + span_bytes;
        victim.lo = a;
        victim.hi = a + bytes;
    }
    void ssan_flush_one(SsanPend& e, bool write) {
        if (e.lo < e.hi && ssan_ != nullptr) {
            const auto* p = reinterpret_cast<const void*>(e.lo);
            if (write) {
                ssan_->note_write(p, e.hi - e.lo);
            } else {
                ssan_->note_read(p, e.hi - e.lo);
            }
        }
        e = SsanPend{};
    }
    void ssan_flush() {
        for (int w = 0; w < 2; ++w) {
            for (int i = 0; i < 2; ++i) ssan_flush_one(ssan_pend_[w][i], w != 0);
        }
    }
    /// Warp currently executing inside warp_tiles()/warp_tiles_local();
    /// -1 during block-sequential phases (publish loops, prefix sums).
    int current_warp_ = -1;
    /// Per-granule shared-memory shadow: (barrier_epoch+1):32 | (warp+2):8 |
    /// atomic:1.  Grown lazily by shared_access(); per-block, so the reused
    /// thread-local arena never leaks stale shadow state between blocks.
    std::vector<std::uint64_t> sh_shadow_;
};

// ===== inline implementations ==============================================

template <typename T>
std::span<T> BlockCtx::shared_array(std::size_t n) {
    // align to alignof(T)
    std::size_t offset = (shared_used_ + alignof(T) - 1) / alignof(T) * alignof(T);
    std::size_t end = offset + n * sizeof(T);
    if (end > shared_limit_) {
        throw std::runtime_error("shared memory capacity exceeded: need " + std::to_string(end) +
                                 " bytes, block limit is " + std::to_string(shared_limit_));
    }
    // The arena is sized at full capacity in the constructor, so spans
    // handed out earlier stay valid.  Zero the new region: the arena is
    // reused across blocks, and kernels are entitled to fresh (zeroed)
    // shared memory per block.
    shared_used_ = end;
    std::memset(shared_mem_ + offset, 0, end - offset);
    return {reinterpret_cast<T*>(shared_mem_ + offset), n};
}

template <typename F>
void BlockCtx::warp_tiles(std::size_t n, std::size_t tile, F&& fn) {
    const int wpb = warps_per_block();
    const std::size_t total_warps =
        static_cast<std::size_t>(grid_dim_) * static_cast<std::size_t>(wpb);
    const std::size_t stride = total_warps * tile;
    for (int w = 0; w < wpb; ++w) {
        const std::size_t gw = static_cast<std::size_t>(block_idx_) * static_cast<std::size_t>(wpb) +
                               static_cast<std::size_t>(w);
        current_warp_ = w;  // attribute shared-memory accesses to this warp
        for (std::size_t base = gw * tile; base < n; base += stride) {
            const std::size_t count = std::min(tile, n - base);
            WarpCtx warp(*this, static_cast<int>(std::min<std::size_t>(count, kWarpSize)));
            fn(warp, base, count);
        }
    }
    current_warp_ = -1;
}

template <typename F>
void BlockCtx::warp_tiles_local(std::size_t n, F&& fn) {
    const auto wpb = static_cast<std::size_t>(warps_per_block());
    const std::size_t tile = kWarpSize;
    const std::size_t stride = wpb * tile;
    for (std::size_t w = 0; w < wpb; ++w) {
        current_warp_ = static_cast<int>(w);
        for (std::size_t base = w * tile; base < n; base += stride) {
            const std::size_t count = std::min(tile, n - base);
            WarpCtx warp(*this, static_cast<int>(count));
            fn(warp, base, count);
        }
    }
    current_warp_ = -1;
}

template <typename T>
void WarpCtx::load(std::span<const T> src, std::size_t base, T* regs) const {
    if (Sanitizer* san = blk_->san_; san != nullptr) {
        const auto n = static_cast<std::size_t>(lanes_);
        if (base + n > src.size()) {
            san->oob(ViolationKind::global_oob, "load", base + n - 1, src.size(),
                     blk_->block_idx_);
        }
        san->global_read(src.data() + base, n * sizeof(T), blk_->block_idx_, "load");
    }
    if (StreamSan* ssan = blk_->ssan_; ssan != nullptr) {
        const auto n = static_cast<std::size_t>(lanes_);
        if (base + n <= src.size()) {
            blk_->ssan_note_elem(src.data(), src.size() * sizeof(T), src.data() + base,
                                 n * sizeof(T), /*write=*/false);
        }
    }
    for (int l = 0; l < lanes_; ++l) regs[l] = src[base + static_cast<std::size_t>(l)];
    blk_->counters_.global_bytes_read += static_cast<std::uint64_t>(lanes_) * sizeof(T);
}

template <typename T>
void WarpCtx::store(std::span<T> dst, std::size_t base, const T* regs) const {
    if (Sanitizer* san = blk_->san_; san != nullptr) {
        const auto n = static_cast<std::size_t>(lanes_);
        if (base + n > dst.size()) {
            san->oob(ViolationKind::global_oob, "store", base + n - 1, dst.size(),
                     blk_->block_idx_);
        }
        san->global_write(dst.data() + base, n * sizeof(T), blk_->block_idx_, "store");
    }
    if (StreamSan* ssan = blk_->ssan_; ssan != nullptr) {
        const auto n = static_cast<std::size_t>(lanes_);
        if (base + n <= dst.size()) {
            blk_->ssan_note_elem(dst.data(), dst.size() * sizeof(T), dst.data() + base,
                                 n * sizeof(T), /*write=*/true);
        }
    }
    for (int l = 0; l < lanes_; ++l) dst[base + static_cast<std::size_t>(l)] = regs[l];
    blk_->counters_.global_bytes_written += static_cast<std::uint64_t>(lanes_) * sizeof(T);
}

template <typename T>
void WarpCtx::gather(std::span<const T> src, const std::size_t* idx, T* regs) const {
    if (Sanitizer* san = blk_->san_; san != nullptr) {
        for (int l = 0; l < lanes_; ++l) {
            if (idx[l] >= src.size()) {
                san->oob(ViolationKind::global_oob, "gather", idx[l], src.size(),
                         blk_->block_idx_);
            }
            san->global_read(src.data() + idx[l], sizeof(T), blk_->block_idx_, "gather");
        }
    }
    if (StreamSan* ssan = blk_->ssan_; ssan != nullptr && lanes_ > 0) {
        // Envelope of the lane indices: StreamSan folds byte ranges per
        // launch anyway, so one note covers the whole scattered tile.
        const auto [lo, hi] = std::minmax_element(idx, idx + lanes_);
        if (*hi < src.size()) {
            blk_->ssan_note_elem(src.data(), src.size() * sizeof(T), src.data() + *lo,
                                 (*hi - *lo + 1) * sizeof(T), /*write=*/false);
        }
    }
    for (int l = 0; l < lanes_; ++l) regs[l] = src[idx[l]];
    blk_->counters_.scattered_bytes_read += static_cast<std::uint64_t>(lanes_) * sizeof(T);
}

template <typename T>
int WarpCtx::scatter(std::span<T> dst, const std::int32_t* idx, const T* regs,
                     const bool* active) const {
    int n = 0;
    for (int l = 0; l < lanes_; ++l) {
        if (!active[l]) continue;
        const auto i = static_cast<std::size_t>(idx[l]);
        if (Sanitizer* san = blk_->san_; san != nullptr) {
            if (i >= dst.size()) {
                san->oob(ViolationKind::global_oob, "scatter", i, dst.size(), blk_->block_idx_);
            }
            san->global_write(dst.data() + i, sizeof(T), blk_->block_idx_, "scatter");
        }
        if (StreamSan* ssan = blk_->ssan_; ssan != nullptr && i < dst.size()) {
            blk_->ssan_note_elem(dst.data(), dst.size() * sizeof(T), dst.data() + i, sizeof(T),
                                 /*write=*/true);
        }
        dst[i] = regs[l];
        ++n;
    }
    blk_->counters_.scattered_bytes_written += static_cast<std::uint64_t>(n) * sizeof(T);
    return n;
}

template <typename T>
int WarpCtx::compress_store(std::span<T> dst, std::size_t pos, std::uint32_t mask,
                            const T* regs) const {
    if (lanes_ < 32) mask &= (1u << lanes_) - 1u;
    const auto count = static_cast<std::size_t>(std::popcount(mask));
    if (Sanitizer* san = blk_->san_; san != nullptr && count > 0) {
        if (pos + count > dst.size()) {
            san->oob(ViolationKind::global_oob, "compress_store", pos + count - 1, dst.size(),
                     blk_->block_idx_);
        }
        san->global_write(dst.data() + pos, count * sizeof(T), blk_->block_idx_,
                          "compress_store");
    }
    if (StreamSan* ssan = blk_->ssan_; ssan != nullptr && count > 0 && pos + count <= dst.size()) {
        blk_->ssan_note_elem(dst.data(), dst.size() * sizeof(T), dst.data() + pos,
                             count * sizeof(T), /*write=*/true);
    }
    const int n = simd::compress_store(regs, mask, lanes_, dst.data() + pos);
    blk_->counters_.global_bytes_written += static_cast<std::uint64_t>(n) * sizeof(T);
    return n;
}

template <typename T>
int WarpCtx::compress_store_rev(std::span<T> dst, std::size_t pos_hi, std::uint32_t mask,
                                const T* regs) const {
    if (lanes_ < 32) mask &= (1u << lanes_) - 1u;
    const auto count = static_cast<std::size_t>(std::popcount(mask));
    if (Sanitizer* san = blk_->san_; san != nullptr && count > 0) {
        if (pos_hi >= dst.size() || pos_hi + 1 < count) {
            san->oob(ViolationKind::global_oob, "compress_store_rev", pos_hi, dst.size(),
                     blk_->block_idx_);
        }
        san->global_write(dst.data() + (pos_hi + 1 - count), count * sizeof(T),
                          blk_->block_idx_, "compress_store_rev");
    }
    if (StreamSan* ssan = blk_->ssan_;
        ssan != nullptr && count > 0 && pos_hi < dst.size() && pos_hi + 1 >= count) {
        blk_->ssan_note_elem(dst.data(), dst.size() * sizeof(T),
                             dst.data() + (pos_hi + 1 - count), count * sizeof(T),
                             /*write=*/true);
    }
    const int n = simd::compress_store_reverse(regs, mask, lanes_, dst.data() + pos_hi);
    blk_->counters_.global_bytes_written += static_cast<std::uint64_t>(n) * sizeof(T);
    return n;
}

template <typename T>
int WarpCtx::compress_gather_store(std::span<T> dst, std::size_t pos, std::span<const T> src,
                                   std::size_t src_base, std::uint32_t mask) const {
    if (lanes_ < 32) mask &= (1u << lanes_) - 1u;
    const auto count = static_cast<std::size_t>(std::popcount(mask));
    if (Sanitizer* san = blk_->san_; san != nullptr && count > 0) {
        for (int l = 0; l < lanes_; ++l) {
            if (((mask >> l) & 1u) == 0) continue;
            const std::size_t i = src_base + static_cast<std::size_t>(l);
            if (i >= src.size()) {
                san->oob(ViolationKind::global_oob, "compress_gather_store", i, src.size(),
                         blk_->block_idx_);
            }
            san->global_read(src.data() + i, sizeof(T), blk_->block_idx_,
                             "compress_gather_store");
        }
        if (pos + count > dst.size()) {
            san->oob(ViolationKind::global_oob, "compress_gather_store", pos + count - 1,
                     dst.size(), blk_->block_idx_);
        }
        san->global_write(dst.data() + pos, count * sizeof(T), blk_->block_idx_,
                          "compress_gather_store");
    }
    if (StreamSan* ssan = blk_->ssan_; ssan != nullptr && count > 0) {
        const std::size_t lo = src_base + static_cast<std::size_t>(std::countr_zero(mask));
        const std::size_t hi = src_base + static_cast<std::size_t>(std::bit_width(mask)) - 1;
        if (hi < src.size()) {
            blk_->ssan_note_elem(src.data(), src.size() * sizeof(T), src.data() + lo,
                                 (hi - lo + 1) * sizeof(T), /*write=*/false);
        }
        if (pos + count <= dst.size()) {
            blk_->ssan_note_elem(dst.data(), dst.size() * sizeof(T), dst.data() + pos,
                                 count * sizeof(T), /*write=*/true);
        }
    }
    const int n = simd::compress_store(src.data() + src_base, mask, lanes_, dst.data() + pos);
    blk_->counters_.scattered_bytes_read += static_cast<std::uint64_t>(n) * sizeof(T);
    blk_->counters_.global_bytes_written += static_cast<std::uint64_t>(n) * sizeof(T);
    return n;
}

}  // namespace gpusel::simt
