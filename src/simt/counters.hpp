#pragma once
// Event counters for the SIMT simulator.
//
// Every instrumented operation a kernel performs (global/shared memory
// traffic, atomics, warp votes, barriers, abstract ALU work) is tallied into
// a KernelCounters instance.  Counters are kept per block context while a
// kernel runs -- so the hot path is a plain integer increment without any
// synchronization -- and merged into the launch-wide KernelProfile when the
// block retires.
//
// The timing model (timing.hpp) converts a KernelProfile into simulated
// nanoseconds for a given ArchSpec.  The counters themselves are exact: they
// are produced by executing the real algorithm on the real data.

#include <cstdint>
#include <iosfwd>
#include <string>

namespace gpusel::simt {

/// Exact event tallies for one kernel launch (or any aggregation thereof).
struct KernelCounters {
    // -- global memory traffic ------------------------------------------
    /// Bytes read with warp-coalesced access patterns.
    std::uint64_t global_bytes_read = 0;
    /// Bytes written with warp-coalesced access patterns.
    std::uint64_t global_bytes_written = 0;
    /// Bytes read through gather (scattered) accesses.
    std::uint64_t scattered_bytes_read = 0;
    /// Bytes written through scatter accesses.
    std::uint64_t scattered_bytes_written = 0;

    // -- shared memory ---------------------------------------------------
    /// Bytes moved to/from block shared memory (non-atomic accesses).
    std::uint64_t shared_bytes_accessed = 0;

    // -- atomics ----------------------------------------------------------
    /// Atomic ops issued on shared-memory operands.
    std::uint64_t shared_atomic_ops = 0;
    /// Intra-warp same-address conflicts among shared atomics
    /// (lanes beyond the first touching an address in the same warp op).
    std::uint64_t shared_atomic_collisions = 0;
    /// Atomic ops issued on global-memory operands.
    std::uint64_t global_atomic_ops = 0;
    /// Intra-warp same-address conflicts among global atomics.
    std::uint64_t global_atomic_collisions = 0;

    // -- warp / block level ops ------------------------------------------
    /// Warp vote operations (__ballot_sync equivalents).
    std::uint64_t warp_ballots = 0;
    /// Warp shuffle/broadcast operations (priced by the timing model; no
    /// current kernel issues one).
    std::uint64_t warp_shuffles = 0;
    /// Block-wide barriers (__syncthreads equivalents).
    std::uint64_t block_barriers = 0;

    // -- abstract compute --------------------------------------------------
    /// Scalar instruction equivalents (comparisons, index arithmetic, ...).
    std::uint64_t instructions = 0;

    KernelCounters& operator+=(const KernelCounters& o) noexcept;
    friend KernelCounters operator+(KernelCounters a, const KernelCounters& b) noexcept {
        a += b;
        return a;
    }
    bool operator==(const KernelCounters&) const = default;

    /// Total global memory traffic in bytes (coalesced + scattered).
    [[nodiscard]] std::uint64_t total_global_bytes() const noexcept {
        return global_bytes_read + global_bytes_written + scattered_bytes_read +
               scattered_bytes_written;
    }
    /// Total atomic operations in both memory spaces.
    [[nodiscard]] std::uint64_t total_atomic_ops() const noexcept {
        return shared_atomic_ops + global_atomic_ops;
    }
};

std::ostream& operator<<(std::ostream& os, const KernelCounters& c);

/// Tallies of the selection stack's self-healing actions (retry on
/// injected faults, resampling on stalled levels, deterministic fallback
/// descent) plus the backend planner's decision counts.  Owned by the
/// Device so every front-end reports into one place; surfaced in the
/// benchmark JSON so robustness regressions show up in the perf trajectory
/// alongside the pool counters.  The recovery tallies are all-zero on a
/// healthy, fault-free run over non-adversarial data; the backend_* fields
/// count planner decisions and grow on every planned selection.
struct RobustnessCounters {
    /// Allocation faults recovered by pool-trim + retry.
    std::uint64_t alloc_retries = 0;
    /// Kernel-launch faults recovered by relaunching (with a fresh sample
    /// salt where the kernel was the splitter sampler).
    std::uint64_t launch_retries = 0;
    /// Stalled bucketing levels retried with a fresh splitter sample.
    std::uint64_t resamples = 0;
    /// Descents that exhausted resampling and entered deterministic
    /// fallback mode.
    std::uint64_t fallbacks = 0;
    /// Deterministic tripartition levels executed in fallback mode.
    std::uint64_t fallback_levels = 0;
    /// StreamSan hazards observed so far (simt/streamsan.hpp); zero on a
    /// correctly synchronized run.  Refreshed by the Device at launch and
    /// event boundaries while the stream sanitizer is active.
    std::uint64_t streamsan_hazards = 0;

    // -- backend planner (core/planner.hpp) -------------------------------
    // One tally per planned selection, keyed by the backend the planner
    // chose.  Not "self-healing" in the retry sense, but reported here so
    // the bench JSON's robustness block shows which algorithm actually ran
    // alongside the recovery counters it was chosen from.
    /// Selections the planner routed to the sample-select recursion.
    std::uint64_t backend_sample = 0;
    /// Always 0 (no radix backend); kept for bench/suite's radix_frac row.
    std::uint64_t backend_radix = 0;
    /// Selections the planner routed to the fused-bitonic small-n path.
    std::uint64_t backend_bitonic = 0;

    RobustnessCounters& operator+=(const RobustnessCounters& o) noexcept {
        alloc_retries += o.alloc_retries;
        launch_retries += o.launch_retries;
        resamples += o.resamples;
        fallbacks += o.fallbacks;
        fallback_levels += o.fallback_levels;
        streamsan_hazards += o.streamsan_hazards;
        backend_sample += o.backend_sample;
        backend_radix += o.backend_radix;
        backend_bitonic += o.backend_bitonic;
        return *this;
    }
    bool operator==(const RobustnessCounters&) const = default;
    [[nodiscard]] bool all_zero() const noexcept { return *this == RobustnessCounters{}; }
};

std::ostream& operator<<(std::ostream& os, const RobustnessCounters& c);

/// One backend-planner decision (core/planner.hpp), recorded on the Device
/// so the chrome-trace export (simt/trace.hpp) can render it as an instant
/// event on the stream it applied to.  Kept at the simt layer as plain
/// strings/ints -- the simulator knows nothing about the core backends.
/// Recording is host-side bookkeeping: no launch, no clock advance, so
/// kernel event streams are untouched.
struct PlannerEvent {
    /// Stream clock at decision time (the instant event's timestamp).
    double sim_ns = 0.0;
    /// Stream the planned selection runs on.
    int stream = 0;
    /// Backend name ("sample" / "bitonic").
    std::string backend;
    /// One-line rationale ("multi-rank bucket tree", ...).
    std::string reason;
    /// Problem shape the decision was made for.
    std::uint64_t n = 0;
    std::uint64_t k = 0;
};

/// One sample of a numeric track for the chrome-trace export ("ph":"C"
/// counter events): the server's queue-depth track, EWMA service estimate,
/// ...  Host-side bookkeeping like PlannerEvent; the simulator assigns no
/// meaning to name/track.
struct TraceCounter {
    double sim_ns = 0.0;
    /// Trace thread id the counter renders under (picked above the stream
    /// tids by the exporter's caller).
    int track = 0;
    /// Counter series name ("queue_depth", "inflight", ...).
    std::string name;
    double value = 0.0;
};

/// One point annotation for the chrome-trace export ("ph":"i" instant
/// events): admission decisions (admit/shed/deadline-reject/degrade),
/// breaker transitions, drain milestones.
struct TraceInstant {
    double sim_ns = 0.0;
    int track = 0;
    /// Event name ("shed", "degrade", "breaker_open", ...).
    std::string name;
    /// Free-form detail rendered into the event args ("tenant=3", ...).
    std::string detail;
};

/// Where a kernel launch originated.  Device-side launches model CUDA
/// Dynamic Parallelism (tail recursion stays on the GPU, Sec. IV-E of the
/// paper) and are charged a different launch latency.
enum class LaunchOrigin { host, device };

/// Full record of one kernel launch: configuration, exact event counts and
/// the simulated duration assigned by the timing model.
struct KernelProfile {
    std::string name;
    int grid_dim = 0;
    int block_dim = 0;
    std::size_t shared_bytes = 0;
    LaunchOrigin origin = LaunchOrigin::host;
    /// Loop unrolling depth declared by the kernel (Sec. IV-H d); consumed
    /// by the timing model's latency-hiding/occupancy terms.
    int unroll = 1;
    /// Stream the launch was enqueued on (0 = default stream).
    int stream = 0;
    /// The grid body's counters, one ticket atomic per block included when
    /// the launch has an epilogue.
    KernelCounters counters;
    /// The grid epilogue's counters (Device::launch): the one block that
    /// takes the last ticket runs it after every block of the grid.  All
    /// zero for a launch without one.
    KernelCounters epilogue;
    /// Simulated execution time (set by the Device at launch retirement).
    double sim_ns = 0.0;
    /// Simulated start time: the launch's stream clock before this launch
    /// ran (set by the Device).  Launches on different streams may have
    /// overlapping [start_ns, start_ns + sim_ns) intervals.
    double start_ns = 0.0;
};

std::ostream& operator<<(std::ostream& os, const KernelProfile& p);

}  // namespace gpusel::simt
