#pragma once
// Device-wide exclusive prefix sum (exclusive scan) over int32 buffers:
// the general-purpose building block behind the Sec. IV-G reduction step
// ("computing a prefix sum, also sometimes referred to as exclusive scan,
// over all block-local partial sums").  The specialized reduce_kernel in
// core/ handles the [block][bucket] row-major layout of the per-block
// partial counts; this substrate provides the plain 1-D scan for other
// consumers (histogram APIs, top-k bookkeeping, user code).
//
// Three-phase multi-block algorithm: per-block chunk scans producing block
// sums, a scan of the block sums, and an offset-add pass -- each phase a
// separate, fully instrumented kernel launch.

#include <cstdint>
#include <span>

#include "simt/device.hpp"

namespace gpusel::simt {

/// out[i] = sum of in[0..i); in and out may alias.
void exclusive_scan_i32(Device& dev, std::span<const std::int32_t> in,
                        std::span<std::int32_t> out,
                        LaunchOrigin origin = LaunchOrigin::host, int block_dim = 256,
                        int stream = 0);

/// Convenience: returns the total sum (== exclusive scan's past-the-end
/// value).  Runs the same kernels plus a final readback.
[[nodiscard]] std::int64_t scan_total_i32(Device& dev, std::span<const std::int32_t> in,
                                          std::span<std::int32_t> out,
                                          LaunchOrigin origin = LaunchOrigin::host,
                                          int block_dim = 256, int stream = 0);

}  // namespace gpusel::simt
