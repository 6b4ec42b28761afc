#pragma once
// Batched selection over many independent sequences -- the "multiple
// sequence selection" extension the paper names as future work (Sec. VI).
//
// Typical callers hold thousands of short sequences (rows of a sparse
// factorization, per-query candidate lists, per-key telemetry windows) and
// need one order statistic from each.  Launching a full selection per
// sequence would drown in launch latency; instead the CSR batch is handed
// to the stream-parallel BatchExecutor (core/batch_executor.hpp): short
// sequences share one fused bitonic launch per stream (one thread block
// per sequence, Sec. IV-D), oversized sequences run the regular
// SampleSelect recursion on their stream, and independent streams overlap
// in simulated time.

#include <cstdint>
#include <span>
#include <vector>

#include "core/batch_executor.hpp"
#include "core/config.hpp"
#include "core/status.hpp"
#include "simt/device.hpp"

namespace gpusel::core {

template <typename T>
struct BatchedSelectResult {
    /// values[i] is the element of rank ranks[i] within sequence i.
    std::vector<T> values;
    /// Sequences handled by the fused batched kernel launches.
    std::size_t batched_sequences = 0;
    /// Sequences that fell back to the SampleSelect recursion.
    std::size_t recursive_sequences = 0;
    /// Simulated wall time of the batch (== wall_ns; the latest stream
    /// completion, what a host observes after synchronizing).
    double sim_ns = 0.0;
    std::uint64_t launches = 0;
    /// NaN keys across the whole batch (each sequence gets its own staging
    /// pre-pass; a rank inside a sequence's NaN tail answers quiet NaN).
    std::size_t nan_count = 0;
    /// Stream-overlap accounting (core/batch_executor.hpp): wall vs the
    /// back-to-back cost of the same launches on one stream.
    int streams_used = 1;
    double wall_ns = 0.0;
    double serial_ns = 0.0;
};

/// Selects ranks[i] from the i-th sequence of a CSR-style batch:
/// sequence i occupies flat[offsets[i] .. offsets[i+1]).
/// Requirements: offsets is non-decreasing with offsets.front() == 0 and
/// offsets.back() == flat.size(); ranks[i] < length of sequence i (in
/// particular no empty sequences); ranks.size() == offsets.size() - 1.
/// Malformed batch shapes and out-of-range ranks come back as a typed
/// Status.  `opts` sizes the stream fan (default: GPUSEL_STREAMS, then
/// min(batch, 8); see core/batch_executor.hpp).
template <typename T>
[[nodiscard]] Result<BatchedSelectResult<T>> try_batched_select(
    simt::Device& dev, std::span<const T> flat, std::span<const std::size_t> offsets,
    std::span<const std::size_t> ranks, const SampleSelectConfig& cfg,
    const BatchOptions& opts = {});

extern template Result<BatchedSelectResult<float>> try_batched_select<float>(
    simt::Device&, std::span<const float>, std::span<const std::size_t>,
    std::span<const std::size_t>, const SampleSelectConfig&, const BatchOptions&);
extern template Result<BatchedSelectResult<double>> try_batched_select<double>(
    simt::Device&, std::span<const double>, std::span<const std::size_t>,
    std::span<const std::size_t>, const SampleSelectConfig&, const BatchOptions&);

}  // namespace gpusel::core
