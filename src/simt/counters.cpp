#include "simt/counters.hpp"

#include <ostream>

namespace gpusel::simt {

KernelCounters& KernelCounters::operator+=(const KernelCounters& o) noexcept {
    global_bytes_read += o.global_bytes_read;
    global_bytes_written += o.global_bytes_written;
    scattered_bytes_read += o.scattered_bytes_read;
    scattered_bytes_written += o.scattered_bytes_written;
    shared_bytes_accessed += o.shared_bytes_accessed;
    shared_atomic_ops += o.shared_atomic_ops;
    shared_atomic_collisions += o.shared_atomic_collisions;
    global_atomic_ops += o.global_atomic_ops;
    global_atomic_collisions += o.global_atomic_collisions;
    warp_ballots += o.warp_ballots;
    warp_shuffles += o.warp_shuffles;
    block_barriers += o.block_barriers;
    instructions += o.instructions;
    return *this;
}

std::ostream& operator<<(std::ostream& os, const KernelCounters& c) {
    os << "{gmem r/w " << c.global_bytes_read << "/" << c.global_bytes_written
       << " B, scattered r/w " << c.scattered_bytes_read << "/" << c.scattered_bytes_written
       << " B, smem " << c.shared_bytes_accessed << " B, atomics s/g " << c.shared_atomic_ops
       << "/" << c.global_atomic_ops << " (coll " << c.shared_atomic_collisions << "/"
       << c.global_atomic_collisions << "), ballots " << c.warp_ballots << ", shfl "
       << c.warp_shuffles << ", barriers " << c.block_barriers << ", instr " << c.instructions
       << "}";
    return os;
}

std::ostream& operator<<(std::ostream& os, const RobustnessCounters& c) {
    os << "{alloc_retries " << c.alloc_retries << ", launch_retries " << c.launch_retries
       << ", resamples " << c.resamples << ", fallbacks " << c.fallbacks << ", fallback_levels "
       << c.fallback_levels << ", streamsan_hazards " << c.streamsan_hazards << ", backend s/b "
       << c.backend_sample << "/" << c.backend_bitonic << "}";
    return os;
}

std::ostream& operator<<(std::ostream& os, const KernelProfile& p) {
    os << p.name << " <<<" << p.grid_dim << ", " << p.block_dim << ", " << p.shared_bytes
       << ">>> (" << (p.origin == LaunchOrigin::host ? "host" : "device") << " launch) "
       << p.sim_ns << " ns " << p.counters;
    if (p.epilogue != KernelCounters{}) os << " epilogue " << p.epilogue;
    return os;
}

}  // namespace gpusel::simt
