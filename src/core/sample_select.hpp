#pragma once
// Exact SampleSelect (Sec. IV-B/IV-E): the recursive driver tying together
// the sample, count, reduce and filter kernels.  Each level inspects the
// bucket counts, terminates early in an equality bucket or descends into the
// rank's bucket (SelectionPipeline::descend, core/pipeline.hpp), whose
// filter draws the next level's sample or sorts the base case.  The
// paper's CUDA Dynamic Parallelism tail recursion is modeled by launch
// latency alone: every level below the first launches with
// LaunchOrigin::device; there is no host-side control queue.

#include <cstdint>
#include <span>

#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "core/status.hpp"
#include "simt/device.hpp"
#include "simt/memory.hpp"

namespace gpusel::core {

template <typename T>
struct SelectResult {
    /// The element of the requested rank.
    T value{};
    /// Recursion levels executed (sample/count/filter rounds; 0 if the
    /// input went straight to the base case).
    std::size_t levels = 0;
    /// True if selection terminated early in an equality bucket
    /// (repeated-element fast path, Sec. IV-C).
    bool equality_exit = false;
    /// Simulated duration of the whole selection [ns].
    double sim_ns = 0.0;
    /// Kernel launches performed.
    std::uint64_t launches = 0;
    /// Peak auxiliary device memory above the input buffer [bytes].
    std::size_t aux_bytes = 0;
    /// Stalled levels retried with a fresh splitter sample
    /// (guaranteed-progress policy, docs/robustness.md).
    std::size_t resamples = 0;
    /// Deterministic median-of-9 tripartition levels executed after the
    /// resampling budget ran out (or under force_fallback).
    std::size_t fallback_levels = 0;
    /// NaN keys moved to the tail of the total order by the staging
    /// pre-pass (float/double only; see core/float_order.hpp).
    std::size_t nan_count = 0;
};

/// Selects the element of the given 0-based rank from `input`.  The input
/// is copied to a device buffer before timing starts (the paper measures
/// the selection, not the transfer).  Every failure mode -- bad argument,
/// rank out of range, rejected NaN keys, exhausted fault retries,
/// exhausted progress policy, depth cap -- comes back as a typed Status
/// (docs/robustness.md).  Float/double inputs run the NaN staging
/// pre-pass: NaNs sort above +inf (NanPolicy::propagate_largest) and a
/// rank inside the NaN tail yields quiet NaN without touching the device.
template <typename T>
[[nodiscard]] Result<SelectResult<T>> try_sample_select(simt::Device& dev,
                                                        std::span<const T> input, std::size_t rank,
                                                        const SampleSelectConfig& cfg);

extern template Result<SelectResult<float>> try_sample_select<float>(
    simt::Device&, std::span<const float>, std::size_t, const SampleSelectConfig&);
extern template Result<SelectResult<double>> try_sample_select<double>(
    simt::Device&, std::span<const double>, std::size_t, const SampleSelectConfig&);
extern template Result<SelectResult<ArgPair>> try_sample_select<ArgPair>(
    simt::Device&, std::span<const ArgPair>, std::size_t, const SampleSelectConfig&);

}  // namespace gpusel::core
