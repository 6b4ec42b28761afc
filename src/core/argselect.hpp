#pragma once
// Index-returning selection front-ends (docs/argselect.md): the
// avx512_argsort / avx512_qsort_kv shape on top of the generic selection
// pipeline.  Each key is paired with its original position into an ArgPair
// (core/key_payload.hpp) and the unmodified kernels select over the pairs;
// the payload tie-break makes every answer deterministic, including on
// all-equal inputs.
//
//  * try_argselect(keys, rank): the (key, index) pair std::nth_element would
//    place at `rank` under (key total order, then index) -- the index
//    stability policy.
//  * try_topk_largest_indices(keys, k): the k largest keys with their original
//    positions, sorted descending; equal keys by ascending index.  Runs on
//    negated-key pairs so the tie-break still prefers smaller indices.  The
//    library's one index-returning top-k.
//  * try_partial_sort_by_key(keys, payloads, k): the k smallest (key, payload)
//    records in ascending key order -- select the k-th smallest pair as a
//    threshold, extract exactly k pairs in one compress-store pass, sort
//    only those (device bitonic when they fit the network).
//
// NaN keys rank above +inf (NanPolicy::propagate_largest) and among
// themselves by ascending index; NanPolicy::reject fails with
// SelectError::nan_keys_rejected.  Every key becomes a pair and the
// single-device opening (core/opening.hpp) partitions the NaN pairs off;
// NaN-tail answers come from the tail's indices, sorted on the host,
// without touching the device.

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/key_payload.hpp"
#include "core/status.hpp"
#include "simt/device.hpp"

namespace gpusel::core {

struct ArgSelectResult {
    /// The key of the requested rank ...
    float key = 0.0f;
    /// ... and its original position in the input.
    std::uint32_t index = 0;
    /// Pipeline accounting, as in SelectResult (core/sample_select.hpp).
    std::size_t levels = 0;
    bool equality_exit = false;
    double sim_ns = 0.0;
    std::uint64_t launches = 0;
    std::size_t resamples = 0;
    std::size_t fallback_levels = 0;
    std::size_t nan_count = 0;
};

/// The (key, original index) pair of the given
/// 0-based ascending rank under the total order (key, then index).
[[nodiscard]] Result<ArgSelectResult> try_argselect(simt::Device& dev,
                                                    std::span<const float> keys, std::size_t rank,
                                                    const SampleSelectConfig& cfg);

struct ArgTopKResult {
    /// The k largest keys, sorted descending (ties: ascending index).
    std::vector<float> values;
    /// indices[i] is the original position of values[i].
    std::vector<std::uint32_t> indices;
    /// The k-th largest key (== values.back()).
    float threshold = 0.0f;
    double sim_ns = 0.0;
    std::uint64_t launches = 0;
    std::size_t nan_count = 0;
};

/// The k largest keys and their
/// original positions, fully ordered (descending key, ascending index on
/// ties) -- what a retrieval workload consumes directly.
[[nodiscard]] Result<ArgTopKResult> try_topk_largest_indices(simt::Device& dev,
                                                             std::span<const float> keys,
                                                             std::size_t k,
                                                             const SampleSelectConfig& cfg);

struct KeyValueSortResult {
    /// The k smallest keys in ascending order (ties: ascending original
    /// index, so the sort is stable with respect to the input).
    std::vector<float> keys;
    /// The caller's payload carried along under the same permutation.
    std::vector<std::uint32_t> payloads;
    double sim_ns = 0.0;
    std::uint64_t launches = 0;
    std::size_t nan_count = 0;
};

/// Key/value partial sort (the avx512_qsort_kv shape): returns the k
/// smallest (key, payload) records in ascending key order.
/// `payloads.size()` must equal `keys.size()`.
[[nodiscard]] Result<KeyValueSortResult> try_partial_sort_by_key(
    simt::Device& dev, std::span<const float> keys, std::span<const std::uint32_t> payloads,
    std::size_t k, const SampleSelectConfig& cfg);

}  // namespace gpusel::core
