#pragma once
// Stream-parallel batch execution (Sec. VI future work: "multiple sequence
// selection"): fans a batch of independent selection problems out over a
// set of simulator streams so their kernel timelines overlap.
//
// Three layers:
//
//   * resolve_stream_count -- the fan-width policy: an explicit request
//     wins, then the GPUSEL_STREAMS environment variable, then the
//     default min(batch, 8); always clamped to [1, batch].
//   * StreamFan -- RAII lease of extra streams from the device's reuse
//     pool (simt::Device::lease_stream), with event-based fork/join
//     against the base stream: fork() makes every lane wait on the work
//     enqueued so far, join() makes the base stream wait on every lane.
//     A fan of one lane is the base stream itself and fork/join are
//     no-ops, so the single-stream path is byte-identical to serial code.
//   * BatchExecutor<T> -- runs a batch of (data, rank) problems: each
//     problem is staged onto its lane's stream (round-robin), problems
//     whose numeric prefix fits the single-block sorting capacity are
//     coalesced into ONE fused bitonic launch per lane, and the rest run
//     the full SampleSelect recursion on their lane's stream with pooled
//     scratch ordered on that stream (per-stream arenas, simt/pool.hpp).
//
// Event-count contract: per problem, the launches issued (names, grids,
// origins, counters) are identical to running that problem alone on the
// serial path; only the stream ids -- and therefore the overlap in
// simulated time -- differ.  Items record their launch-index range so
// tests can compare per-problem profile subsequences against fresh
// serial runs.

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "core/status.hpp"
#include "simt/device.hpp"

namespace gpusel::core {

/// Stream-fan sizing knobs shared by every batch front-end.
struct BatchOptions {
    /// Lanes to fan over; <= 0 resolves via GPUSEL_STREAMS, then
    /// min(batch, 8).  Always clamped to the batch size.
    int streams = 0;
};

/// Widest fan any configuration may request; GPUSEL_STREAMS beyond this is
/// a typo or a misunderstanding of the stream pool, not a tuning choice.
inline constexpr long kMaxStreamFan = 256;

/// Resolves the fan width for a batch of `batch` problems (see
/// BatchOptions::streams).  `requested` <= 0 defers to the GPUSEL_STREAMS
/// environment variable, then to min(batch, 8).  A GPUSEL_STREAMS value
/// that is non-numeric, has trailing junk, is zero/negative or exceeds
/// kMaxStreamFan fails with SelectError::invalid_argument instead of
/// silently falling back (an operator typo must not quietly serialize the
/// whole fleet onto one stream).  An empty value counts as unset.
[[nodiscard]] Result<int> try_resolve_stream_count(std::size_t batch, int requested = 0);

/// RAII fan of streams: lane 0 is the caller's base stream, lanes 1..n-1
/// are leased from the device and returned on destruction.  Callers should
/// join() before the fan is destroyed -- released leases may be handed to
/// unrelated later work; if an exception (or an early error return) skips
/// the join, the destructor performs a best-effort join itself so a lease
/// is never released with un-joined lane work pending.
class StreamFan {
public:
    StreamFan(simt::Device& dev, int count, int base_stream = 0);
    ~StreamFan();
    StreamFan(const StreamFan&) = delete;
    StreamFan& operator=(const StreamFan&) = delete;
    StreamFan(StreamFan&&) = delete;
    StreamFan& operator=(StreamFan&&) = delete;

    [[nodiscard]] int count() const noexcept { return static_cast<int>(streams_.size()); }
    /// Stream id of lane i (lane 0 == the base stream).
    [[nodiscard]] int stream(int lane) const { return streams_[static_cast<std::size_t>(lane)]; }
    /// Round-robin lane assignment for problem `index`.
    [[nodiscard]] int lane_of(std::size_t index) const noexcept {
        return static_cast<int>(index % streams_.size());
    }

    /// Records an event on the base stream and makes every other lane wait
    /// on it: work fanned out afterwards starts no earlier than the work
    /// enqueued so far.  Returns the fork timestamp.
    double fork();
    /// Makes the base stream wait on every lane's completion event.
    void join();

    /// Lane busy time since the fork, read before join().
    struct Overlap {
        /// The latest lane completion: what a host observes after
        /// synchronizing.
        double wall_ns = 0.0;
        /// The sum of lane busy times: what the same launches would cost
        /// back to back on one stream.
        double serial_ns = 0.0;
    };
    [[nodiscard]] Overlap overlap() const;

private:
    simt::Device* dev_;
    std::vector<int> streams_;
    double fork_ns_ = 0.0;
    /// False between fork() and join(): lane work may be pending.
    bool joined_ = true;
};

/// One selection problem of a batch.
template <typename T>
struct BatchProblem {
    std::span<const T> data;
    std::size_t rank = 0;
    /// Per-problem absolute sim-ns deadline; 0 inherits the config's
    /// deadline_ns (which itself defaults to "none").  Only full-recursion
    /// problems honour it -- coalesced problems share one fused launch,
    /// which is never aborted mid-flight (see docs/service.md).
    double deadline_ns = 0.0;
};

/// Per-problem outcome and provenance.
template <typename T>
struct BatchItemResult {
    T value{};
    /// Per-item outcome: ok() for answered problems.  Only deadline
    /// overruns (SelectError::deadline_exceeded) fail per item -- the rest
    /// of the batch keeps running; every other error still aborts the
    /// whole run() with a batch-level Status as before.
    Status status;
    /// Stream the problem's launches ran on.
    int stream = 0;
    /// True if the problem was answered by a fused per-lane launch.
    bool coalesced = false;
    /// Launch-count interval [first_launch, last_launch) covering exactly
    /// this problem's launches (empty for NaN-tail ranks answered at
    /// staging; the shared fused launch for coalesced problems).
    std::uint64_t first_launch = 0;
    std::uint64_t last_launch = 0;
    /// NaN keys in this problem's input.
    std::size_t nan_count = 0;
};

/// Whole-batch outcome with the overlap accounting the timing model
/// surfaces: wall_ns is the latest lane completion (what a host observes
/// after synchronizing), serial_ns the sum of per-lane busy time (what the
/// same launches would cost back-to-back on one stream).
template <typename T>
struct BatchExecResult {
    std::vector<BatchItemResult<T>> items;
    int streams_used = 1;
    double wall_ns = 0.0;
    double serial_ns = 0.0;
    std::uint64_t launches = 0;
    /// Problems answered by fused per-lane launches / full recursions.
    std::size_t coalesced_problems = 0;
    std::size_t recursive_problems = 0;
    /// Fused launches issued (at most one per lane).
    std::size_t coalesced_launches = 0;
    std::size_t nan_count = 0;

    [[nodiscard]] double overlap_x() const noexcept {
        return wall_ns > 0.0 ? serial_ns / wall_ns : 1.0;
    }
};

/// The batch driver: one instance per batch invocation.
template <typename T>
class BatchExecutor {
public:
    /// The config is copied, so a temporary is safe to pass.
    BatchExecutor(simt::Device& dev, const SampleSelectConfig& cfg, BatchOptions opts = {})
        : dev_(&dev), cfg_(cfg), opts_(opts) {}

    /// Runs the batch; problems keep their input order in the result.
    [[nodiscard]] Result<BatchExecResult<T>> run(std::span<const BatchProblem<T>> problems);

private:
    simt::Device* dev_;
    SampleSelectConfig cfg_;
    BatchOptions opts_;
};

extern template class BatchExecutor<float>;
extern template class BatchExecutor<double>;
extern template class BatchExecutor<ArgPair>;

}  // namespace gpusel::core
