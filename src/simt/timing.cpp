#include "simt/timing.hpp"

#include <algorithm>
#include <cmath>

namespace gpusel::simt {

namespace {

/// Fills every term of `t` but launch_ns, epilogue_ns and total_ns: the
/// pipelines, barriers and body of `grid` x `block` threads (unrolled
/// `unroll` deep) performing the events in `c`.
void price_body(const ArchSpec& arch, const KernelCounters& c, int grid, int block, int unroll,
                TimingBreakdown& t) {
    // -- utilization: too few threads -> latency-bound, throughput scales
    //    roughly linearly with resident parallelism.
    const double threads = static_cast<double>(grid) * static_cast<double>(block);
    const double peak_threads = static_cast<double>(arch.effective_threads_for_peak());
    const double util = std::clamp(threads / peak_threads, 0.02, 1.0);

    // -- unroll effects (Sec. IV-H d): deeper unrolling lets the compiler
    //    overlap loads from consecutive iterations (better latency hiding),
    //    but inflates register pressure and can reduce occupancy.
    const double u = static_cast<double>(std::max(1, unroll));
    const double mem_latency_eff = std::min(1.0, 0.88 + 0.04 * u);
    const double occupancy_penalty = u >= 8.0 ? 1.06 : 1.0;

    const double bw = arch.sustained_bytes_per_ns() * util * mem_latency_eff;
    const double coalesced =
        static_cast<double>(c.global_bytes_read + c.global_bytes_written);
    const double scattered =
        static_cast<double>(c.scattered_bytes_read + c.scattered_bytes_written);
    t.mem_ns = occupancy_penalty *
               (coalesced / bw + scattered / (bw * arch.scattered_bw_efficiency));

    t.shared_mem_ns =
        static_cast<double>(c.shared_bytes_accessed) / (arch.shared_bytes_per_ns * util);

    const double shared_eff_ops = static_cast<double>(c.shared_atomic_ops) +
                                  arch.shared_collision_penalty *
                                      static_cast<double>(c.shared_atomic_collisions);
    const double global_eff_ops = static_cast<double>(c.global_atomic_ops) +
                                  arch.global_collision_penalty *
                                      static_cast<double>(c.global_atomic_collisions);
    t.atomic_ns = shared_eff_ops / (arch.shared_atomic_ops_per_ns * util) +
                  global_eff_ops / (arch.global_atomic_ops_per_ns * util);

    t.compute_ns = static_cast<double>(c.instructions) / (arch.instr_per_ns * util) +
                   static_cast<double>(c.warp_ballots + c.warp_shuffles) /
                       (arch.ballot_ops_per_ns * util);

    // -- barriers: blocks beyond one resident wave serialize their barriers.
    if (c.block_barriers > 0 && grid > 0 && block > 0) {
        const int blocks_per_sm =
            std::max(1, arch.max_resident_threads_per_sm / std::max(1, block));
        const int concurrent = std::max(1, std::min(grid, arch.num_sms * blocks_per_sm));
        const double waves = std::ceil(static_cast<double>(grid) / concurrent);
        const double per_block_barriers =
            static_cast<double>(c.block_barriers) / static_cast<double>(grid);
        t.barrier_ns = per_block_barriers * waves * arch.barrier_ns;
    }

    t.body_ns = std::max({t.mem_ns, t.shared_mem_ns, t.atomic_ns, t.compute_ns});
    if (t.body_ns == t.mem_ns) {
        t.bottleneck = "mem";
    } else if (t.body_ns == t.atomic_ns) {
        t.bottleneck = "atomic";
    } else if (t.body_ns == t.compute_ns) {
        t.bottleneck = "compute";
    } else {
        t.bottleneck = "smem";
    }
}

}  // namespace

TimingBreakdown simulate_time(const ArchSpec& arch, const KernelProfile& p) {
    TimingBreakdown t;
    price_body(arch, p.counters, p.grid_dim, p.block_dim, p.unroll, t);
    t.launch_ns = p.origin == LaunchOrigin::host ? arch.host_launch_ns : arch.device_launch_ns;
    t.total_ns = t.launch_ns + t.body_ns + t.barrier_ns;
    if (p.epilogue != KernelCounters{}) {
        // One warp of the last block runs it after the grid: its own
        // utilization, no launch latency, and nothing overlaps it.
        TimingBreakdown e;
        price_body(arch, p.epilogue, 1, kWarpSize, 1, e);
        t.epilogue_ns = e.body_ns + e.barrier_ns;
        t.total_ns += t.epilogue_ns;
    }
    return t;
}

StreamOverlap summarize_overlap(const std::vector<KernelProfile>& profiles) {
    StreamOverlap o;
    if (profiles.empty()) return o;
    std::vector<int> seen;
    double first_start = profiles.front().start_ns;
    double last_end = 0.0;
    for (const auto& p : profiles) {
        if (std::find(seen.begin(), seen.end(), p.stream) == seen.end()) seen.push_back(p.stream);
        first_start = std::min(first_start, p.start_ns);
        last_end = std::max(last_end, p.start_ns + p.sim_ns);
        o.serial_ns += p.sim_ns;
    }
    o.streams = static_cast<int>(seen.size());
    o.wall_ns = last_end - first_start;
    return o;
}

int suggest_grid(const ArchSpec& arch, std::size_t n, int block_dim, int unroll) {
    const auto per_block =
        static_cast<std::size_t>(block_dim) * static_cast<std::size_t>(std::max(1, unroll));
    const std::size_t needed = (n + per_block - 1) / std::max<std::size_t>(1, per_block);
    // Two resident blocks per SM saturate the device (grid-stride loops
    // cover the rest); a small grid also keeps the per-block partial-count
    // arrays of the shared-atomic hierarchy tiny, preserving the paper's
    // n/4 auxiliary-storage bound (Sec. IV-A).
    const std::size_t cap = static_cast<std::size_t>(arch.num_sms) * 2;
    return static_cast<int>(std::clamp<std::size_t>(needed, 1, cap));
}

}  // namespace gpusel::simt
