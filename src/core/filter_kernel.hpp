#pragma once
// The `filter` kernel (Sec. IV-B c): scans the oracles and extracts the
// elements of one bucket into contiguous storage; its multi-bucket variant
// extracts several buckets, each into its own segment, in one launch.
// Write positions come from a shared-memory counter whose block base was
// produced by the reduce step (this is the merged step 3 of the Sec. IV-G
// hierarchy), or from a global atomic counter in global-atomic mode.
// Follows the predicated-copy approach of Bakunas-Milanowski et al., but
// reads bucket indexes from the oracles instead of predicate bits.

#include <cstdint>
#include <span>

#include "core/config.hpp"
#include "core/key_payload.hpp"
#include "simt/device.hpp"

namespace gpusel::core {

/// Extracts all elements whose oracle equals `bucket` into `out` (which
/// must have the bucket's exact size).
///
/// * Shared mode: `block_offsets` is the reduce_offsets output (row-major
///   grid_dim x num_buckets exclusive prefix sums) and `grid_dim` must
///   equal the count kernel's grid.  `global_counter` is unused.
/// * Global mode: `global_counter` is a zeroed 1-element array used as the
///   shared "next free slot" cursor; `block_offsets` is unused.
///
/// A non-empty `epilogue` runs once after the grid (Device::launch) and
/// sees the whole of `out`: a linear descent finishes its level there
/// (core/pipeline.hpp, LevelTail).
template <typename T>
void filter_kernel(simt::Device& dev, std::span<const T> data,
                   std::span<const std::uint8_t> oracles, std::int32_t bucket, std::span<T> out,
                   std::span<const std::int32_t> block_offsets, int num_buckets,
                   std::span<std::int32_t> global_counter, const SampleSelectConfig& cfg,
                   simt::LaunchOrigin origin, int grid_dim, int stream = -1,
                   const simt::Device::KernelFn& epilogue = {});

/// Multi-bucket filter (the sample-sort scatter): writes every element of a
/// bucket b with seg_start[b] >= 0 into out[seg_start[b], seg_start[b] +
/// |b|); seg_start[b] == -1 drops bucket b.  seg_start has one entry per
/// bucket and lives in device memory.  Warps with no kept lane skip their
/// data tile.
///
/// * Shared mode: one shared cursor per kept bucket and block, seeded with
///   seg_start[b] plus the block's reduce_offsets entry, so placement is
///   deterministic; `global_cursors` is unused.
/// * Global mode: `global_cursors` holds one cursor per bucket, seeded with
///   seg_start by the caller; `block_offsets` is unused.
template <typename T>
void filter_buckets_kernel(simt::Device& dev, std::span<const T> data,
                           std::span<const std::uint8_t> oracles,
                           std::span<const std::int32_t> seg_start, std::span<T> out,
                           std::span<const std::int32_t> block_offsets,
                           std::span<std::int32_t> global_cursors, const SampleSelectConfig& cfg,
                           simt::LaunchOrigin origin, int grid_dim, int stream, const char* name);

/// Fused top-k variant (Sec. IV-I): extracts the target bucket into `out`
/// *and* every element of a larger bucket (oracle > bucket) into `upper`
/// through the global cursor counters[1]; the target cursor is counters[0]
/// in global mode and the block offsets in shared mode, as in
/// filter_kernel.  Used by top-k, where elements above the target bucket
/// are already guaranteed to belong to the top-k set.
/// `out` may be shorter than the bucket: a target element whose slot falls
/// past out.size() is dropped, so an equality bucket writes only the
/// copies top-k still needs.  `epilogue` as in filter_kernel.
template <typename T>
void filter_fused_topk_kernel(simt::Device& dev, std::span<const T> data,
                              std::span<const std::uint8_t> oracles, std::int32_t bucket,
                              std::span<T> out, std::span<T> upper,
                              std::span<const std::int32_t> block_offsets, int num_buckets,
                              std::span<std::int32_t> counters, const SampleSelectConfig& cfg,
                              simt::LaunchOrigin origin, int grid_dim, int stream = -1,
                              const simt::Device::KernelFn& epilogue = {});

extern template void filter_kernel<float>(
    simt::Device&, std::span<const float>, std::span<const std::uint8_t>, std::int32_t,
    std::span<float>, std::span<const std::int32_t>, int, std::span<std::int32_t>,
    const SampleSelectConfig&, simt::LaunchOrigin, int, int, const simt::Device::KernelFn&);
extern template void filter_kernel<double>(
    simt::Device&, std::span<const double>, std::span<const std::uint8_t>, std::int32_t,
    std::span<double>, std::span<const std::int32_t>, int, std::span<std::int32_t>,
    const SampleSelectConfig&, simt::LaunchOrigin, int, int, const simt::Device::KernelFn&);
extern template void filter_buckets_kernel<float>(simt::Device&, std::span<const float>,
                                                  std::span<const std::uint8_t>,
                                                  std::span<const std::int32_t>, std::span<float>,
                                                  std::span<const std::int32_t>,
                                                  std::span<std::int32_t>,
                                                  const SampleSelectConfig&, simt::LaunchOrigin,
                                                  int, int, const char*);
extern template void filter_buckets_kernel<double>(simt::Device&, std::span<const double>,
                                                   std::span<const std::uint8_t>,
                                                   std::span<const std::int32_t>,
                                                   std::span<double>,
                                                   std::span<const std::int32_t>,
                                                   std::span<std::int32_t>,
                                                   const SampleSelectConfig&, simt::LaunchOrigin,
                                                   int, int, const char*);
extern template void filter_fused_topk_kernel<float>(
    simt::Device&, std::span<const float>, std::span<const std::uint8_t>, std::int32_t,
    std::span<float>, std::span<float>, std::span<const std::int32_t>, int, std::span<std::int32_t>,
    const SampleSelectConfig&, simt::LaunchOrigin, int, int, const simt::Device::KernelFn&);
extern template void filter_fused_topk_kernel<double>(
    simt::Device&, std::span<const double>, std::span<const std::uint8_t>, std::int32_t,
    std::span<double>, std::span<double>, std::span<const std::int32_t>, int,
    std::span<std::int32_t>, const SampleSelectConfig&, simt::LaunchOrigin, int, int,
    const simt::Device::KernelFn&);
extern template void filter_kernel<ArgPair>(
    simt::Device&, std::span<const ArgPair>, std::span<const std::uint8_t>, std::int32_t,
    std::span<ArgPair>, std::span<const std::int32_t>, int, std::span<std::int32_t>,
    const SampleSelectConfig&, simt::LaunchOrigin, int, int, const simt::Device::KernelFn&);
extern template void filter_fused_topk_kernel<ArgPair>(
    simt::Device&, std::span<const ArgPair>, std::span<const std::uint8_t>, std::int32_t,
    std::span<ArgPair>, std::span<ArgPair>, std::span<const std::int32_t>, int,
    std::span<std::int32_t>, const SampleSelectConfig&, simt::LaunchOrigin, int, int,
    const simt::Device::KernelFn&);

}  // namespace gpusel::core
