#pragma once
// Analytic timing model: converts the exact event counts of a kernel launch
// into simulated nanoseconds for a given architecture.
//
// The model is a throughput/roofline hybrid:
//   * memory, atomic and compute pipelines each get a duration from their
//     event totals divided by a device-aggregate throughput;
//   * the pipelines overlap, so the kernel body costs max(...) of them;
//   * launch latency and serialized barrier waves are added on top;
//   * a grid epilogue (Device::launch) runs after the body on one warp of
//     one block: it is priced like a one-warp launch without latency and
//     added after the body, outside the max(...);
//   * a utilization factor < 1 penalizes launches with too few threads to
//     saturate the device (latency-bound regime at small n);
//   * the declared unroll depth slightly improves memory latency hiding and
//     slightly hurts occupancy at large depths (Sec. IV-H d of the paper).
//
// All constants live in ArchSpec; see EXPERIMENTS.md "Calibration" for how
// they were chosen to reproduce the paper's architectural contrasts.

#include <vector>

#include "simt/arch.hpp"
#include "simt/counters.hpp"

namespace gpusel::simt {

/// Per-pipeline durations making up one kernel launch.
struct TimingBreakdown {
    double launch_ns = 0.0;
    double mem_ns = 0.0;          ///< global-memory traffic
    double shared_mem_ns = 0.0;   ///< shared-memory (non-atomic) traffic
    double atomic_ns = 0.0;       ///< shared + global atomics incl. collisions
    double compute_ns = 0.0;      ///< scalar instructions + votes + shuffles
    double barrier_ns = 0.0;      ///< serialized barrier waves
    double body_ns = 0.0;         ///< max of the overlapping pipelines
    /// The grid epilogue: body + barriers of a one-block launch of
    /// kWarpSize threads over KernelProfile::epilogue (0 without one).
    double epilogue_ns = 0.0;
    double total_ns = 0.0;        ///< launch + body + barriers + epilogue

    /// Which pipeline dominated the body (for reporting): "mem", "atomic",
    /// "compute" or "smem".
    const char* bottleneck = "mem";
};

/// Computes the simulated duration of a kernel launch.
[[nodiscard]] TimingBreakdown simulate_time(const ArchSpec& arch, const KernelProfile& p);

/// Cross-stream view of a span of kernel launches.  With per-stream clocks
/// the wall time of a section is the max over stream completion times,
/// while its serial cost is the sum of every launch's duration -- the gap
/// between the two is the overlap won by running independent work on
/// independent streams.
struct StreamOverlap {
    int streams = 0;        ///< distinct stream ids that appear
    double wall_ns = 0.0;   ///< latest end minus earliest start over all launches
    double serial_ns = 0.0; ///< sum of all launch durations (one-stream cost)
    /// serial_ns / wall_ns: 1.0 when fully serialized, approaching the
    /// stream count under perfect overlap.
    [[nodiscard]] double overlap_x() const noexcept {
        return wall_ns > 0.0 ? serial_ns / wall_ns : 1.0;
    }
};

/// Summarizes stream overlap over a profile list (typically
/// Device::profiles() after a batched section).
[[nodiscard]] StreamOverlap summarize_overlap(const std::vector<KernelProfile>& profiles);

/// Suggested grid size for a data-parallel launch over n elements with the
/// given block size and unroll depth: enough blocks for full occupancy, but
/// capped so grid-stride loops amortize scheduling (the usual CUDA sizing
/// heuristic).
[[nodiscard]] int suggest_grid(const ArchSpec& arch, std::size_t n, int block_dim, int unroll = 1);

}  // namespace gpusel::simt
