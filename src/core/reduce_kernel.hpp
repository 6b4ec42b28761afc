#pragma once
// The `reduce` step of the shared-memory atomic hierarchy (Sec. IV-G):
// a prefix sum over the block-local partial counts.  For SampleSelect the
// per-block exclusive prefix sums are kept (turned into the write offsets
// the filter kernel consumes), which is why the paper observes this
// reduction being more expensive when oracles/offsets are needed (Fig. 9).

#include <cstdint>
#include <span>

#include "simt/device.hpp"

namespace gpusel::core {

/// A rank for a counting kernel to locate in its grid epilogue, once the
/// last block finished the totals: the locate step (Sec. IV-E: the kernels
/// that "select the bucket containing the kth-smallest element and compute
/// the launch parameters") writes the exclusive prefix sum r_i of the b
/// totals into `prefix` (b + 1 entries) and leaves the bucket containing
/// `rank`, the largest i with prefix[i] <= rank, in `bucket`.
struct RankLocate {
    std::span<std::int32_t> prefix;
    std::size_t rank = 0;
    std::int32_t bucket = -1;  ///< set by the epilogue
};

/// The grid epilogue that locates `loc` over `totals` on one block; empty
/// (no epilogue, no tickets) when `loc` is null.  `totals` holds one or
/// more rows of b = loc->prefix.size() - 1 counts, and the locate runs over
/// their column sums.  The one copy of the locate: a level's last counting
/// kernel runs it after its grid over its one row, and
/// select_bucket_kernel launches it on its own.
[[nodiscard]] simt::Device::KernelFn locate_epilogue(std::span<const std::int32_t> totals,
                                                     RankLocate* loc);

/// Reduces block_counts (grid_dim x num_buckets, laid out [block][bucket]
/// row-major) into per-bucket totals.  When `keep_block_offsets` is set,
/// block_counts[g * b + i] is replaced in-place by the exclusive prefix sum
/// over blocks 0..g-1 of bucket i -- the base write offset of block g
/// within bucket i's contiguous output range.
///
/// The launch runs one block per strip of 32 adjacent buckets (one per
/// lane) with min(grid_dim, 32) warps, each owning a contiguous run of
/// block rows: a warp loads its rows as coalesced strip segments and sums
/// them, one barrier later a column scan over the run sums yields every
/// run's base and the strip's totals, and with offsets kept a second
/// barrier later each warp rewrites its rows as exclusive offsets.
///
/// With `locate`, the launch's grid epilogue locates its rank over the
/// finished totals (see RankLocate).
void reduce_kernel(simt::Device& dev, std::span<std::int32_t> block_counts, int grid_dim,
                   int num_buckets, std::span<std::int32_t> totals, bool keep_block_offsets,
                   simt::LaunchOrigin origin, int stream = 0, RankLocate* locate = nullptr);

/// The tiny bucket-selection kernel: locate_epilogue as a one-block launch,
/// for callers that locate outside a counting kernel.  `totals` may hold
/// several rows of prefix.size() - 1 counts (the sharded locate's one row
/// per shard); one row is charged exactly as a level's own locate.
/// Returns the bucket.
std::int32_t select_bucket_kernel(simt::Device& dev, std::span<const std::int32_t> totals,
                                  std::span<std::int32_t> prefix, std::size_t rank,
                                  simt::LaunchOrigin origin, int stream = 0);

}  // namespace gpusel::core
