#pragma once
// Shared by the golden suites: an FNV-1a fold of launch profiles and the
// device options the suites construct their simulated devices with.

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "simt/counters.hpp"
#include "simt/device.hpp"

namespace gpusel::golden {

class Fnv1a {
public:
    void add(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
    }
    void add(const std::string& s) {
        for (const char c : s) byte(static_cast<unsigned char>(c));
        add(static_cast<std::uint64_t>(s.size()));
    }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
    void add(float v) { add(static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(v))); }
    [[nodiscard]] std::uint64_t value() const { return h_; }

private:
    void byte(unsigned char b) {
        h_ ^= b;
        h_ *= 0x100000001b3ULL;
    }
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline void add_counters(Fnv1a& h, const simt::KernelCounters& c) {
    for (const std::uint64_t v :
         {c.global_bytes_read, c.global_bytes_written, c.scattered_bytes_read,
          c.scattered_bytes_written, c.shared_bytes_accessed, c.shared_atomic_ops,
          c.shared_atomic_collisions, c.global_atomic_ops, c.global_atomic_collisions,
          c.warp_ballots, c.warp_shuffles, c.block_barriers, c.instructions}) {
        h.add(v);
    }
}

/// Folds one launch: name, grid, block, origin, stream, exact counters, the
/// grid epilogue's counters when it has one, and simulated duration.
inline void add_profile(Fnv1a& h, const simt::KernelProfile& p) {
    h.add(p.name);
    h.add(static_cast<std::uint64_t>(p.grid_dim));
    h.add(static_cast<std::uint64_t>(p.block_dim));
    h.add(static_cast<std::uint64_t>(p.origin));
    h.add(static_cast<std::uint64_t>(p.stream));
    add_counters(h, p.counters);
    if (p.epilogue != simt::KernelCounters{}) add_counters(h, p.epilogue);
    h.add(p.sim_ns);
}

/// Golden devices run the parallel block scheduler when GPUSEL_WORKERS is
/// set (so a rerun under it really exercises the scheduler) and inline
/// otherwise.  The pinned hashes must not depend on the choice.
inline simt::DeviceOptions device_options() {
    return {.host_workers =
                std::getenv("GPUSEL_WORKERS") != nullptr ? simt::default_host_workers() : 0};
}

}  // namespace gpusel::golden
