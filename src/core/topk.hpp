#pragma once
// Top-k selection via kernel fusion (Sec. IV-I): the filter kernel copies
// not only the bucket containing the threshold rank, but also every element
// of the buckets above it -- those are guaranteed members of the top-k set,
// so they move straight to the result while the recursion descends only
// into the threshold bucket.  The threshold bucket's own share goes
// straight to the result too when it can finish the set: an equality
// bucket writes only the copies still needed, and a bucket that fits the
// base case is sorted and its top copied in the filter's grid epilogue.

#include <cstdint>
#include <span>
#include <vector>

#include "core/batch_executor.hpp"
#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "core/status.hpp"
#include "simt/device.hpp"

namespace gpusel::core {

template <typename T>
struct TopKResult {
    /// The k largest elements (unordered).
    std::vector<T> elements;
    /// The smallest of them: the k-th largest element (the threshold).
    T threshold{};
    std::size_t levels = 0;
    double sim_ns = 0.0;
    std::uint64_t launches = 0;
    /// Guaranteed-progress accounting (docs/robustness.md).
    std::size_t resamples = 0;
    std::size_t fallback_levels = 0;
    /// NaN keys found by the staging pre-pass; NaNs are the largest keys
    /// of the total order, so topk_largest returns min(k, nan_count) of
    /// them and topk_smallest avoids them until the numbers run out.
    std::size_t nan_count = 0;
};

/// Returns the k largest elements of `input` (0 < k <= n); every failure
/// mode comes back as a typed Status.
template <typename T>
[[nodiscard]] Result<TopKResult<T>> try_topk_largest(simt::Device& dev, std::span<const T> input,
                                                     std::size_t k, const SampleSelectConfig& cfg);

/// Returns the k smallest elements; `threshold` is the k-th smallest.
/// Implemented by running the fused top-k machinery on the negated values
/// (one extra negation pass each way, charged to the simulated clock) --
/// selection is comparison-based, so negation is an order-reversing
/// bijection that costs exactly two streaming passes.
template <typename T>
[[nodiscard]] Result<TopKResult<T>> try_topk_smallest(simt::Device& dev, std::span<const T> input,
                                                      std::size_t k,
                                                      const SampleSelectConfig& cfg);

/// One problem of a top-k batch.
template <typename T>
struct TopKBatchProblem {
    std::span<const T> data;
    std::size_t k = 0;
};

/// Batch-mode outcome with the stream-overlap accounting of
/// core/batch_executor.hpp: wall_ns is the latest lane completion,
/// serial_ns the back-to-back cost of the same launches on one stream.
template <typename T>
struct TopKBatchResult {
    /// items[i] is the full top-k result for problems[i].
    std::vector<TopKResult<T>> items;
    int streams_used = 1;
    double wall_ns = 0.0;
    double serial_ns = 0.0;
    std::uint64_t launches = 0;

    [[nodiscard]] double overlap_x() const noexcept {
        return wall_ns > 0.0 ? serial_ns / wall_ns : 1.0;
    }
};

/// Batch mode: runs each top-k problem on a lane of a StreamFan
/// (round-robin), so independent problems overlap in simulated time.
/// Per-problem launches are identical to serial try_topk_largest calls;
/// only the stream tags and the overlap differ.  `opts` sizes the fan
/// (default: GPUSEL_STREAMS, then min(batch, 8)).
template <typename T>
[[nodiscard]] Result<TopKBatchResult<T>> try_topk_largest_batch(
    simt::Device& dev, std::span<const TopKBatchProblem<T>> problems,
    const SampleSelectConfig& cfg, const BatchOptions& opts = {});

extern template Result<TopKResult<float>> try_topk_largest<float>(simt::Device&,
                                                                  std::span<const float>,
                                                                  std::size_t,
                                                                  const SampleSelectConfig&);
extern template Result<TopKResult<double>> try_topk_largest<double>(simt::Device&,
                                                                    std::span<const double>,
                                                                    std::size_t,
                                                                    const SampleSelectConfig&);
extern template Result<TopKResult<float>> try_topk_smallest<float>(simt::Device&,
                                                                   std::span<const float>,
                                                                   std::size_t,
                                                                   const SampleSelectConfig&);
extern template Result<TopKResult<double>> try_topk_smallest<double>(simt::Device&,
                                                                     std::span<const double>,
                                                                     std::size_t,
                                                                     const SampleSelectConfig&);
extern template Result<TopKBatchResult<float>> try_topk_largest_batch<float>(
    simt::Device&, std::span<const TopKBatchProblem<float>>, const SampleSelectConfig&,
    const BatchOptions&);
extern template Result<TopKBatchResult<double>> try_topk_largest_batch<double>(
    simt::Device&, std::span<const TopKBatchProblem<double>>, const SampleSelectConfig&,
    const BatchOptions&);

}  // namespace gpusel::core
