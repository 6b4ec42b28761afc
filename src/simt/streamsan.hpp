#pragma once
// StreamSan: happens-before hazard analysis over the stream/event/pool
// graph (docs/streamsan.md).
//
// SimTSan (simt/sanitizer.hpp) checks hazards *inside* one launch: blocks
// of the same kernel racing on a granule.  Nothing there verifies that two
// launches on *different streams* touching the same buffer are actually
// ordered by a fork/join event edge -- exactly the class of bug the pool's
// cross-stream gating and core::StreamFan are supposed to prevent, and
// exactly what GPU-level detectors (Barracuda, iGUARD) catch with
// synchronization-aware happens-before analysis over the launch graph.
//
// The Device records an ordering log as it executes: launches tick a
// per-stream vector clock, event records snapshot the recording stream's
// clock, event waits join the snapshot into the waiting stream, host
// synchronization joins everything.  Kernel-side, the one check every
// global-memory primitive calls (BlockCtx::check, simt/block.hpp, shared
// with SimTSan) hands each access's byte envelope to the block's access
// coalescer, which folds them per span and passes a handful of ranges per
// block to note() -- metadata only, no shadow memory.  note() folds them
// into per-region byte ranges, and the end-of-launch analysis compares
// those ranges against each region's access history under the
// vector-clock partial order.
//
// What it detects (HazardKind):
//   * write_write_race / read_write_race -- two launches on different
//     streams touch overlapping bytes of one region, at least one writes,
//     and no happens-before edge (event, synchronize, stream creation)
//     orders them.
//   * pool_reuse        -- a pooled block last released on stream A is
//     re-issued to stream B with no ordering between them (only possible
//     on a standalone pool with no stream clock; the Device's pool gates
//     cross-stream reuse on completed timelines, which StreamSan models as
//     the allocator's internal event edge).
//   * release_in_flight -- a pooled block is released on stream A while an
//     access from stream B is not yet ordered before the release (the
//     "freed while another stream may still be using it" bug).
//   * wait_unrecorded   -- wait_event() on a timestamp no record_event()
//     produced (a stale or fabricated event).
//   * hb_cycle          -- wait_event() on a *future* timestamp that was
//     never recorded: the wait can only be satisfied by work that has not
//     happened, i.e. a cyclic (deadlocking) fork/join structure on real
//     hardware.
//
// Modes (GPUSEL_STREAMSAN / Device::set_stream_sanitizer, the grammar and
// the SanMode values SimTSan uses, simt/analyzer.hpp):
//   strict  (GPUSEL_STREAMSAN=1) -- throw StreamSanError at the first
//           host-side opportunity; surfaces through the Status channel as
//           SelectError::sanitizer_violation (never retried).  Hazards
//           detected on noexcept paths (pool release in a destructor) are
//           deferred and thrown from the next launch bracket.
//   collect (GPUSEL_STREAMSAN=2) -- record hazards and keep running; each
//           hazard also lands on the `streamsan` chrome-trace track
//           (kStreamSanTrack) for the trace exporters.
//
// Soundness stance: missed races are acceptable (per-stream histories keep
// one epoch per plane, same-timestamp event records merge snapshots),
// false positives are not -- every reported hazard is a pair of accesses
// the vector clocks genuinely cannot order.
//
// Determinism: StreamSan never touches KernelCounters, stream clocks or
// profiles -- event-count golden streams are byte-identical with it on or
// off.  Performance: metadata only (byte-range folding, no per-granule
// shadow), acceptance bound <= 1.5x wall clock on a full selection
// (bench_simulator_overhead's streamsan_slowdown_x counter).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "simt/analyzer.hpp"
#include "simt/counters.hpp"

namespace gpusel::simt {

using StreamSanMode = SanMode;

enum class HazardKind {
    write_write_race,
    read_write_race,
    pool_reuse,
    release_in_flight,
    wait_unrecorded,
    hb_cycle,
};

[[nodiscard]] std::string_view to_string(HazardKind kind) noexcept;

/// Trace tid the collect-mode hazard track renders under (above the
/// server's supervisor tracks, see server/service.hpp).
inline constexpr int kStreamSanTrack = 1003;

/// One detected ordering hazard, with enough context to locate the bug:
/// which kernel, which streams, which byte range of which region.
struct StreamHazard {
    HazardKind kind{};
    std::string kernel;  ///< kernel/primitive of the later access (may be empty)
    int stream = -1;     ///< stream of the later (reporting) side
    int other_stream = -1;  ///< stream of the earlier, unordered side
    std::size_t lo = 0;  ///< conflicting byte range within the region
    std::size_t hi = 0;
    double sim_ns = 0.0;  ///< simulated time at detection
    std::string detail;   ///< human-readable specifics

    [[nodiscard]] std::string message() const;
};

/// Thrown in strict mode from host-side hooks (launch bracket, event wait,
/// pool acquire).  Mapped to SelectError::sanitizer_violation by the
/// pipeline's retry wrappers -- never retried, always surfaced.
class StreamSanError : public std::runtime_error {
public:
    explicit StreamSanError(StreamHazard h)
        : std::runtime_error(h.message()), h_(std::move(h)) {}
    [[nodiscard]] const StreamHazard& hazard() const noexcept { return h_; }

private:
    StreamHazard h_;
};

/// The analyzer: per-stream vector clocks + per-region access histories +
/// the event table.  Owned by the Device; off means no StreamSan at all,
/// and the primitives then pay one branch on BlockCtx's armed flag.
class StreamSan {
public:
    /// `concurrent` declares whether block workers may note accesses from
    /// more than one thread (Device passes host_workers != 0); the serial
    /// case takes plain loads/stores on the per-launch range scratch.
    explicit StreamSan(SanMode mode, bool concurrent = true);
    StreamSan(const StreamSan&) = delete;
    StreamSan& operator=(const StreamSan&) = delete;

    [[nodiscard]] SanMode mode() const noexcept { return mode_; }
    [[nodiscard]] bool enabled() const noexcept { return mode_ != SanMode::off; }

    // ---- region registry (host control thread, between launches) ----------
    /// Registers a global-memory region for access-history tracking
    /// (DeviceBuffer user data, pool checkout user bytes).
    void register_region(const void* base, std::size_t bytes);
    /// Drops a region and its history (noexcept: called from destructors).
    void unregister_region(const void* base) noexcept;
    /// Regions registered and not yet unregistered or released (live
    /// buffers and pool checkouts that hold on to this analyzer).
    [[nodiscard]] std::size_t tracked_regions() const noexcept { return regions_.size(); }

    // ---- ordering-log hooks (host control thread) --------------------------
    /// A stream slot was created or re-leased.  The simulator's causality
    /// rule is that a (re)acquired stream starts at the device completion
    /// time, i.e. all previously enqueued work is ordered before anything
    /// the new stream runs -- modeled as a join of every clock.
    void on_stream_acquired(int stream);
    /// Launch bracket: ticks the stream's clock component, starts the
    /// per-launch access recording, and drains any deferred strict-mode
    /// hazard from a noexcept detection site.
    void on_launch_begin(int stream, std::string_view kernel);
    /// End-of-launch analysis: folds the recorded read/write ranges into
    /// each touched region's history, reporting unordered cross-stream
    /// conflicts.  `end_ns` stamps collect-mode trace instants.
    void on_launch_end(int stream, double end_ns);
    /// record_event(): snapshots the recording stream's vector clock under
    /// the event's timestamp.  Two records landing on the same simulated
    /// timestamp merge snapshots -- a spurious edge can hide a race but
    /// never fabricates one.
    void on_event_record(int stream, double event_ns);
    /// wait_event(): joins the recorded snapshot into the waiting stream.
    /// An unknown timestamp at or before the device completion time
    /// `completion_ns` is a wait_unrecorded hazard; an unknown *future*
    /// timestamp is an hb_cycle (only unenqueued work could satisfy it).
    void on_event_wait(int stream, double event_ns, double completion_ns);
    /// Host synchronization: joins every stream's clock to the maximum.
    void on_synchronize();
    /// Device::reset_clock(): simulated timestamps restart, so recorded
    /// event snapshots keyed by the old timeline are dropped.
    void reset_timeline() noexcept;

    // ---- pool hooks --------------------------------------------------------
    /// A pooled block's user region is released on `stream`.  Record-only
    /// (releases run in noexcept destructors): flags accesses from other
    /// streams not ordered before the release (release_in_flight), stores
    /// the releasing clock as the block's reuse tombstone, and unregisters
    /// the region.
    void on_pool_release(const void* base, int stream) noexcept;
    /// The same backing block is re-issued.  Same-stream reuse is ordered
    /// by stream order; gated cross-stream reuse models the stream-ordered
    /// allocator's internal event edge (the tombstone clock joins into the
    /// acquiring stream); un-gated cross-stream reuse is a pool_reuse
    /// hazard.  May throw in strict mode (acquire is a throwing context).
    void on_pool_reuse(const void* base, int acq_stream, int prev_stream, bool gated);
    /// Drops a block's reuse tombstone (pool trim).
    void forget(const void* base) noexcept;

    // ---- kernel-side hook (block worker threads) ---------------------------
    /// Folds the byte range [p, p + bytes), read or written by the current
    /// launch, into its region's per-launch scratch; all analysis happens
    /// at on_launch_end on the host thread.  Fed by BlockCtx's coalescer;
    /// defined inline below the class.
    void note(const void* p, std::size_t bytes, bool write);

    // ---- results -----------------------------------------------------------
    /// Stored hazards (at most ReportLog::kMaxStored; the total keeps
    /// counting).
    [[nodiscard]] std::vector<StreamHazard> hazards() const { return log_.stored(); }
    [[nodiscard]] std::uint64_t total_hazards() const noexcept { return log_.total(); }
    /// Number of region range-fold checks performed (liveness signal).
    /// Approximate under concurrency, like Sanitizer::checks().
    [[nodiscard]] std::uint64_t checks() const noexcept {
        return checks_.load(std::memory_order_relaxed);
    }
    /// Collect-mode hazard annotations for the chrome-trace export
    /// (rendered on kStreamSanTrack).  Host thread only.
    [[nodiscard]] const std::vector<TraceInstant>& trace_instants() const noexcept {
        return trace_instants_;
    }
    void clear();

private:
    /// One access epoch: stream `stream`'s clock component was `clk` when
    /// bytes [lo, hi) of the region were touched.  stream < 0 means none.
    struct Epoch {
        int stream = -1;
        std::uint64_t clk = 0;
        std::size_t lo = 0;
        std::size_t hi = 0;
        std::string kernel;
    };

    struct Region {
        std::uintptr_t base = 0;
        std::size_t bytes = 0;
        // History: one epoch per plane/stream.  Overwriting an older epoch
        // of the same plane can miss a race on the dropped range; merging
        // ranges instead could report one that was actually ordered, so
        // histories always replace, never union.
        Epoch last_write;
        std::vector<Epoch> reads;  ///< at most one per stream
        // Per-launch fold scratch, lazily reset when `seq` is stale.
        std::uint64_t seq = 0;
        std::size_t r_lo = 0, r_hi = 0;  ///< read range; r_lo > r_hi means none
        std::size_t w_lo = 0, w_hi = 0;
    };

    /// Grows every vector clock (and the clock list) to cover `stream`.
    void ensure_stream(int stream);
    /// Vector-clock join: into[t] = max(into[t], from[t]), growing `into`
    /// to cover `from`.
    static void join(std::vector<std::uint64_t>& into, const std::vector<std::uint64_t>& from);
    /// True when `e` is an access from a stream other than s that is not
    /// ordered before s's current position: e.clk > VC_s[e.stream].
    [[nodiscard]] bool unordered(const Epoch& e, int s) const noexcept {
        if (e.stream < 0 || e.stream == s) return false;
        const auto t = static_cast<std::size_t>(e.stream);
        const std::vector<std::uint64_t>& vc = vc_[static_cast<std::size_t>(s)];
        return t >= vc.size() || e.clk > vc[t];
    }

    /// Cold first-touch and the concurrent (atomic_ref) fold, out of line.
    void note_concurrent(Region* r, std::size_t lo, std::size_t hi, bool write);
    void first_touch_slow(Region* r);

    /// Records a hazard: logs it, emits a collect-mode trace instant.  `allow_throw` selects strict-mode
    /// behavior: throw here (host throwing context) vs defer to the next
    /// launch bracket (noexcept detection site).
    void report(StreamHazard h, bool allow_throw);
    [[noreturn]] void throw_hazard(StreamHazard h);
    void throw_pending();

    SanMode mode_;
    bool concurrent_;
    RegionTable<Region> regions_;
    std::vector<std::vector<std::uint64_t>> vc_{{0}};  ///< per-stream vector clocks
    std::map<double, std::vector<std::uint64_t>> events_;  ///< recorded snapshots
    /// Reuse tombstones: releasing stream's clock for blocks currently on
    /// a pool free list, keyed by storage base.
    std::map<std::uintptr_t, std::vector<std::uint64_t>> tombstones_;
    std::uint64_t launch_seq_ = 0;       ///< per-launch scratch staleness tag
    bool in_launch_ = false;
    int cur_stream_ = 0;
    std::string cur_kernel_;
    std::vector<Region*> accessed_;      ///< regions touched by the launch
    std::mutex touch_mu_;                ///< concurrent first-touch / accessed_
    std::atomic<std::uint64_t> checks_{0};
    ReportLog<StreamHazard> log_;
    std::vector<TraceInstant> trace_instants_;
    bool has_pending_ = false;           ///< deferred strict-mode hazard
    StreamHazard pending_;
};

// ===== inline hot path =====================================================
// The fold is four compares and four stores per note in the clean case;
// first-touch (once per region per launch) and everything that can report
// live out of line in streamsan.cpp.

inline void StreamSan::note(const void* p, std::size_t bytes, bool write) {
    if (!in_launch_ || bytes == 0) return;
    Region* r = regions_.find(p, bytes);
    if (r == nullptr) return;  // host vector or stack local: not tracked
    // Liveness counter; relaxed load+store, not a LOCK-prefixed fetch_add.
    checks_.store(checks_.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    const std::size_t lo = reinterpret_cast<std::uintptr_t>(p) - r->base;
    const std::size_t hi = lo + bytes;
    if (concurrent_) {
        note_concurrent(r, lo, hi, write);
        return;
    }
    // Serial scheduler: plain loads and stores.
    if (r->seq != launch_seq_) first_touch_slow(r);
    if (write) {
        if (lo < r->w_lo) r->w_lo = lo;
        if (hi > r->w_hi) r->w_hi = hi;
    } else {
        if (lo < r->r_lo) r->r_lo = lo;
        if (hi > r->r_hi) r->r_hi = hi;
    }
}

}  // namespace gpusel::simt
