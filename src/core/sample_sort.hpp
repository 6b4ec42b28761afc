#pragma once
// Complete sample sort (the paper's second future-work item in Sec. VI:
// "extension to a complete sorting algorithm").  Reuses SampleSelect's
// sample/count/reduce machinery, but the filter step becomes a scatter of
// *all* buckets into their contiguous output ranges (classic GPU
// super-scalar sample sort); each bucket is then sorted recursively, with
// the bitonic network as the base case and equality buckets finishing
// immediately.

#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/status.hpp"
#include "simt/device.hpp"

namespace gpusel::core {

template <typename T>
struct SortResult {
    std::vector<T> sorted;
    double sim_ns = 0.0;
    std::uint64_t launches = 0;
    std::size_t max_depth = 0;
    /// Guaranteed-progress accounting (docs/robustness.md).
    std::size_t resamples = 0;
    std::size_t fallback_levels = 0;
    /// NaN keys moved to the tail of the sorted output by the staging
    /// pre-pass (NaN is the largest key in the total order).
    std::size_t nan_count = 0;
};

/// Fully sorts `input` ascending.  Injected faults, rejected NaN keys and
/// exhausted recursion depth come back as a typed Status.
template <typename T>
[[nodiscard]] Result<SortResult<T>> try_sample_sort(simt::Device& dev, std::span<const T> input,
                                                    const SampleSelectConfig& cfg);

extern template Result<SortResult<float>> try_sample_sort<float>(simt::Device&,
                                                                 std::span<const float>,
                                                                 const SampleSelectConfig&);
extern template Result<SortResult<double>> try_sample_sort<double>(simt::Device&,
                                                                   std::span<const double>,
                                                                   const SampleSelectConfig&);

}  // namespace gpusel::core
