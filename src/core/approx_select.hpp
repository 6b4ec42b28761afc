#pragma once
// Approximate SampleSelect (Sec. II-C and V-G): a single recursion level.
// After grouping elements into buckets, the splitter ranks r_i are free
// byproducts (the bucket-count prefix sums); the splitter whose rank is
// closest to the target rank k is returned as the approximate k-th order
// statistic.  No oracles are written and no filter runs, which radically
// reduces the memory work; the bucket count (up to 1024, shared-memory
// limited) controls the rank-error bound of half the maximum bucket size.

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/status.hpp"
#include "simt/device.hpp"

namespace gpusel::core {

template <typename T>
struct ApproxResult {
    /// The chosen splitter (approximate k-th smallest element).
    T value{};
    /// The splitter's exact rank r_i (known from the bucket prefix sums).
    std::size_t splitter_rank = 0;
    /// |r_i - k|: the rank error, exact by construction.
    std::size_t rank_error = 0;
    /// Largest bucket size of this level (the paper's error bound is half
    /// of this).
    std::size_t max_bucket = 0;
    /// Simulated duration [ns].
    double sim_ns = 0.0;
    std::uint64_t launches = 0;
};

/// Multi-rank approximation: the bucket prefix sums of a single counting
/// level contain the exact ranks of *all* splitters, so approximating any
/// number of target ranks costs one pass.  points[i] answers ranks[i].
template <typename T>
struct ApproxMultiResult {
    std::vector<ApproxResult<T>> points;
    double sim_ns = 0.0;
    std::uint64_t launches = 0;
};

/// Approximates every requested rank with one shared bucketing level.
/// Bad arguments, out-of-range ranks, rejected NaN keys and exhausted
/// fault retries come back as a typed Status.  Under
/// NanPolicy::propagate_largest a rank inside the NaN tail answers quiet
/// NaN with zero rank error (every tail element is NaN).
template <typename T>
[[nodiscard]] Result<ApproxMultiResult<T>> try_approx_multi_select(
    simt::Device& dev, std::span<const T> input, std::span<const std::size_t> ranks,
    const SampleSelectConfig& cfg);

/// Approximates the element of the given rank with one bucketing level.
template <typename T>
[[nodiscard]] Result<ApproxResult<T>> try_approx_select(simt::Device& dev,
                                                        std::span<const T> input,
                                                        std::size_t rank,
                                                        const SampleSelectConfig& cfg);

extern template Result<ApproxMultiResult<float>> try_approx_multi_select<float>(
    simt::Device&, std::span<const float>, std::span<const std::size_t>,
    const SampleSelectConfig&);
extern template Result<ApproxMultiResult<double>> try_approx_multi_select<double>(
    simt::Device&, std::span<const double>, std::span<const std::size_t>,
    const SampleSelectConfig&);
extern template Result<ApproxResult<float>> try_approx_select<float>(simt::Device&,
                                                                     std::span<const float>,
                                                                     std::size_t,
                                                                     const SampleSelectConfig&);
extern template Result<ApproxResult<double>> try_approx_select<double>(simt::Device&,
                                                                       std::span<const double>,
                                                                       std::size_t,
                                                                       const SampleSelectConfig&);

}  // namespace gpusel::core
