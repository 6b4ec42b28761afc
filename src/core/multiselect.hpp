#pragma once
// Multi-rank selection (the "multiple sequence selection" extension the
// paper names as future work in Sec. VI): select several order statistics
// k_1 < ... < k_m in one recursion tree.  One bucketing level serves all
// target ranks, and ONE multi-bucket filter launch extracts *every* bucket
// containing at least one target into its own segment (Sec. IV-I's fused
// extraction, the sample-sort scatter).  ONE batched bitonic launch then
// sorts every small segment (Sec. IV-D), so a level costs the same
// launches for one rank or hundreds; only oversized segments recurse.
//
// The oversized subtrees are independent sub-problems: they are fanned
// over a StreamFan of leased streams (core/batch_executor.hpp), so their
// kernel timelines overlap in simulated time.  The host still recurses
// depth-first, so the launch sequence (names, grids, origins, counters) is
// byte-identical to the serial path; only the stream tags -- and the
// overlap -- differ.

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/status.hpp"
#include "simt/device.hpp"

namespace gpusel::core {

template <typename T>
struct MultiSelectResult {
    /// values[i] is the element of rank ranks[i] (same order as the input
    /// ranks, which need not be sorted).
    std::vector<T> values;
    double sim_ns = 0.0;
    std::uint64_t launches = 0;
    /// Deepest recursion level reached.
    std::size_t max_depth = 0;
    /// Guaranteed-progress accounting (docs/robustness.md).
    std::size_t resamples = 0;
    std::size_t fallback_levels = 0;
    /// NaN keys found by the staging pre-pass; ranks inside the NaN tail
    /// answer quiet NaN.
    std::size_t nan_count = 0;
    /// Streams the first-level bucket subtrees were fanned over (1 =
    /// serial; see core/batch_executor.hpp for the sizing policy).
    int streams_used = 1;
};

/// Selects all requested order statistics of `input`; every failure mode
/// comes back as a typed Status.
template <typename T>
[[nodiscard]] Result<MultiSelectResult<T>> try_multi_select(simt::Device& dev,
                                                            std::span<const T> input,
                                                            std::span<const std::size_t> ranks,
                                                            const SampleSelectConfig& cfg);

extern template Result<MultiSelectResult<float>> try_multi_select<float>(
    simt::Device&, std::span<const float>, std::span<const std::size_t>,
    const SampleSelectConfig&);
extern template Result<MultiSelectResult<double>> try_multi_select<double>(
    simt::Device&, std::span<const double>, std::span<const std::size_t>,
    const SampleSelectConfig&);

}  // namespace gpusel::core
