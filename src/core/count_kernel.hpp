#pragma once
// The `count` kernel (Sec. IV-B b, Fig. 4): every element traverses the
// implicit splitter search tree to find its bucket, the bucket index is
// memoized in a one-byte oracle, and a per-bucket counter is incremented
// atomically -- in block shared memory (followed by the reduce step of the
// Sec. IV-G hierarchy) or directly in global memory.  Optional
// warp-aggregation (Fig. 6) coalesces same-bucket atomics within a warp.

#include <cstdint>
#include <span>

#include "core/config.hpp"
#include "core/reduce_kernel.hpp"
#include "core/searchtree.hpp"
#include "simt/device.hpp"

namespace gpusel::core {

/// Fills a global int32 array with `value` using a tiny kernel (the
/// simulator's cudaMemset; needed before global-atomic counting and to
/// seed cursor counters).
void launch_fill32(simt::Device& dev, std::span<std::int32_t> buf, std::int32_t value,
                   simt::LaunchOrigin origin, int stream = 0);

/// Zeroes a global int32 counter array.
inline void launch_memset32(simt::Device& dev, std::span<std::int32_t> buf,
                            simt::LaunchOrigin origin, int stream = 0) {
    launch_fill32(dev, buf, 0, origin, stream);
}

/// Launches the count kernel.
///
/// * `oracles`: per-element bucket bytes; pass an empty span to skip the
///   oracle write (approximate selection and the Fig. 9 "count w/o write"
///   configuration).
/// * Shared-atomic mode: per-block partial counts go to `block_counts`
///   (size grid_dim * num_buckets, fully overwritten); `totals` is not
///   touched (the reduce kernel fills it).
/// * Global-atomic mode: counts are atomically accumulated in `totals`
///   (which must be zeroed, see launch_memset32); `block_counts` unused.
///
/// Returns the grid size used (needed by reduce/filter).  `stream`
/// overrides the launch stream; the default -1 keeps cfg.stream.
///
/// With `locate` (global-atomic mode only: there the count is the level's
/// last counting kernel), the launch's grid epilogue locates its rank over
/// the finished totals (see RankLocate).
template <typename T>
int count_kernel(simt::Device& dev, std::span<const T> data, const SearchTree<T>& tree,
                 std::span<std::uint8_t> oracles, std::span<std::int32_t> totals,
                 std::span<std::int32_t> block_counts, const SampleSelectConfig& cfg,
                 simt::LaunchOrigin origin, int stream = -1, RankLocate* locate = nullptr);

extern template int count_kernel<float>(simt::Device&, std::span<const float>,
                                        const SearchTree<float>&, std::span<std::uint8_t>,
                                        std::span<std::int32_t>, std::span<std::int32_t>,
                                        const SampleSelectConfig&, simt::LaunchOrigin, int,
                                        RankLocate*);
extern template int count_kernel<double>(simt::Device&, std::span<const double>,
                                         const SearchTree<double>&, std::span<std::uint8_t>,
                                         std::span<std::int32_t>, std::span<std::int32_t>,
                                         const SampleSelectConfig&, simt::LaunchOrigin, int,
                                         RankLocate*);
extern template int count_kernel<ArgPair>(simt::Device&, std::span<const ArgPair>,
                                          const SearchTree<ArgPair>&, std::span<std::uint8_t>,
                                          std::span<std::int32_t>, std::span<std::int32_t>,
                                          const SampleSelectConfig&, simt::LaunchOrigin, int,
                                          RankLocate*);

}  // namespace gpusel::core
