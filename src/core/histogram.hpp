#pragma once
// Equi-depth histograms and rank queries: the bucket machinery of
// SampleSelect exposed as standalone primitives.
//
// An equi-depth histogram (the classic database summary) is exactly what
// one SampleSelect level computes: sampled splitters approximating the
// i/b percentiles plus the exact element count of every bucket.  The
// histogram supports approximate CDF / rank-bound queries through the same
// implicit search tree the kernels traverse.
//
// try_rank_of answers the inverse of selection -- "what is the rank of value
// v?" -- with one tripartition counting pass ({< v, == v, > v}).

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/searchtree.hpp"
#include "core/status.hpp"
#include "simt/device.hpp"

namespace gpusel::core {

template <typename T>
struct EquiDepthHistogram {
    /// Bucket boundaries (the b-1 sorted splitters).
    std::vector<T> boundaries;
    /// Exact element count per bucket (size b).
    std::vector<std::int64_t> counts;
    /// Exclusive prefix sums of counts (size b+1; cumulative[b] == n).
    std::vector<std::int64_t> cumulative;
    /// Total elements summarized.
    std::size_t n = 0;
    /// The search tree used for queries (duplicate boundaries collapse to
    /// equality buckets, exactly like selection).
    SearchTree<T> tree;
    double sim_ns = 0.0;
    std::uint64_t launches = 0;

    /// Bucket index of a value (tree traversal).
    [[nodiscard]] std::int32_t bucket_of(T v) const noexcept { return tree.find_bucket(v); }
    /// Rank bounds of v: every element of rank < lo is < its bucket's
    /// lower boundary, etc.  lo = cumulative[bucket], hi = cumulative[bucket+1].
    [[nodiscard]] std::pair<std::size_t, std::size_t> rank_bounds(T v) const noexcept {
        const auto b = static_cast<std::size_t>(bucket_of(v));
        return {static_cast<std::size_t>(cumulative[b]),
                static_cast<std::size_t>(cumulative[b + 1])};
    }
    /// Approximate CDF: midpoint of the rank bounds over n.
    [[nodiscard]] double cdf(T v) const noexcept {
        const auto [lo, hi] = rank_bounds(v);
        return n == 0 ? 0.0
                      : (static_cast<double>(lo) + static_cast<double>(hi)) /
                            (2.0 * static_cast<double>(n));
    }
};

/// Builds an equi-depth histogram with cfg.num_buckets buckets (counting
/// pass + device scan for the cumulative sums).  Empty input and bad
/// config come back as a typed Status; NaN keys (float/double) land in the last bucket, exactly
/// where find_bucket sends a NaN probe, or fail under NanPolicy::reject.
template <typename T>
[[nodiscard]] Result<EquiDepthHistogram<T>> try_equi_depth_histogram(
    simt::Device& dev, std::span<const T> data, const SampleSelectConfig& cfg);

template <typename T>
struct RankQueryResult {
    /// Elements strictly smaller than the query value (the paper's min-rank).
    std::size_t less = 0;
    /// Elements equal to the query value.
    std::size_t equal = 0;
    double sim_ns = 0.0;
};

/// Exact rank of `v` in `data` via one counting pass; `v` may be NaN (it equals exactly the NaN
/// keys and exceeds every numeric key, per the total order).
template <typename T>
[[nodiscard]] Result<RankQueryResult<T>> try_rank_of(simt::Device& dev, std::span<const T> data,
                                                     T v, const SampleSelectConfig& cfg = {});

extern template Result<EquiDepthHistogram<float>> try_equi_depth_histogram<float>(
    simt::Device&, std::span<const float>, const SampleSelectConfig&);
extern template Result<EquiDepthHistogram<double>> try_equi_depth_histogram<double>(
    simt::Device&, std::span<const double>, const SampleSelectConfig&);
extern template Result<RankQueryResult<float>> try_rank_of<float>(simt::Device&,
                                                                  std::span<const float>, float,
                                                                  const SampleSelectConfig&);
extern template Result<RankQueryResult<double>> try_rank_of<double>(simt::Device&,
                                                                    std::span<const double>,
                                                                    double,
                                                                    const SampleSelectConfig&);

}  // namespace gpusel::core
