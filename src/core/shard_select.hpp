#pragma once
// Out-of-core, multi-device sharded selection (docs/sharding.md).
//
// The paper's algorithms assume the input fits one device.  This layer
// chunks n far beyond one device's modeled memory into shards, runs the
// single-device level executor per shard on its own simulated device and
// stream (simt/topology.hpp), and merges per-shard results through
// hierarchical *deterministic* splitters in the style of Deterministic
// Sample Sort (PAPERS.md): every shard is cut into tiles of
// bitonic::kMaxSortSize, one launch sorts each tile in shared memory and
// keeps s_t = min(4 b, n_t) of its elements at regular rank strides (a
// regular sample of sorted tiles, not a random one), the merged candidate
// set yields b-1 global splitters at regular candidate gaps, and the
// regular-sampling argument then bounds every non-equality global bucket by
//
//     max_bucket <= (2g + T) * max_t ceil(n_t / (s_t + 1))
//
// where g = ceil(|C| / b) is the candidate gap between consecutive global
// splitters and T the tile count -- independent of the data, ties
// included (a bucket's lower splitter can pull up to g - 1 tied candidates
// in; docs/sharding.md).  The bound (ShardAccounting::skew_bound) is what
// keeps the merged rank bucket small enough to finish on one device, and
// per-shard auxiliary memory never exceeds what the single-device pipeline
// would use on a capacity-sized input (asserted in
// tests/test_shard_select.cpp).
//
// Every cross-device byte moves through DeviceGroup::transfer, so link
// traffic is charged like global memory, serialized per directed link, and
// rendered as per-link chrome-trace tracks.  Devices hold at most one
// shard's staging at a time (out-of-core: phases re-stage rather than
// cache; the one exception is each device's last counted level, which
// the gather filters without a recount), and all cross-device reads are
// ordered by transfer ready events -- StreamSan-clean by construction,
// with the broken-scenario tests demonstrating the hazards the edges
// prevent.  A call starts at the group clock and a gather when the root
// has located its bucket, and every step runs under the bounded fault
// retry, so a sharded try_* returns a typed status instead of throwing.

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/searchtree.hpp"
#include "core/status.hpp"
#include "simt/topology.hpp"

namespace gpusel::core {

/// Tuning of the sharded layer.  `select` configures the per-shard and
/// root-side pipelines (its `stream` field is ignored -- the shard layer
/// leases one compute stream per device); the shard-specific knobs control
/// the deterministic splitter merge.  The shard count follows from the
/// group's modeled per-device capacity (plan_shard_count), and every
/// bitonic::kMaxSortSize tile of a shard contributes min(4 *
/// splitter_buckets, tile length) elements of its sorted order to the
/// merge.
struct ShardSelectConfig {
    SampleSelectConfig select;
    /// Global splitter-bucket count b (power of two, 2..256; one-byte
    /// oracles bound it like the exact pipeline's bucket count).
    int splitter_buckets = 32;
    /// Fan-in of the hierarchical candidate gather (members per leader and
    /// leaders per root round); >= 2.
    int merge_fanin = 4;
};

/// Fraction of a device's modeled memory one shard's staged input may
/// occupy.  The rest is headroom for the pipeline's oracles (1 byte/elem),
/// int32 scratch and the ping-pong bucket buffers, so a shard sized
/// against this budget keeps the whole per-shard descent within the
/// device's capacity.
inline constexpr double kShardStagingFraction = 0.25;

/// The shard-count decision for an out-of-core sharded selection: how
/// many chunks to cut n into so every chunk's staged data plus pipeline
/// scratch fits one device's modeled memory.
struct ShardPlan {
    /// Number of shards (>= 1; 1 means the input fits one device).
    std::size_t shards = 1;
    /// Maximum staged elements per shard.
    std::size_t shard_elems = 0;
    /// Stable one-line rationale; the call's descent record carries it.
    const char* reason = "";
};

/// Pure decision function: chunks n elements of elem_size bytes against a
/// device's modeled capacity; num_devices only rounds small multi-shard
/// counts up so every device gets work.
[[nodiscard]] ShardPlan plan_shard_count(std::size_t n, std::size_t elem_size,
                                         std::size_t device_capacity_bytes, int num_devices);

/// Accounting shared by every sharded front-end: how the input was cut,
/// what the merge guaranteed vs measured, and what the topology charged.
struct ShardAccounting {
    std::size_t shards = 0;
    int devices_used = 0;
    /// Largest staged shard (elements).
    std::size_t max_shard_elems = 0;
    /// Max over devices of the peak auxiliary bytes above the call-entry
    /// level (staged shard + pipeline scratch; the out-of-core invariant is
    /// that this stays within one device's modeled capacity).
    std::size_t max_shard_aux_bytes = 0;
    /// Merged splitter-candidate count |C| (sum of per-tile contributions).
    std::size_t merge_candidates = 0;
    /// Deterministic bound on any non-equality global bucket (see header
    /// comment); 0 when the input fit a single shard.
    std::size_t skew_bound = 0;
    /// Measured largest non-equality global bucket (<= skew_bound).
    std::size_t max_bucket = 0;
    /// Bytes moved over the interconnect by this call.
    std::uint64_t link_bytes = 0;
    /// Simulated duration (group wall clock) and total kernel launches.
    double sim_ns = 0.0;
    std::uint64_t launches = 0;
    /// NaN keys skipped at staging (float/double; NaNs sort above +inf).
    std::size_t nan_count = 0;
};

template <typename T>
struct ShardedSelectResult {
    /// The element of the requested rank.
    T value{};
    /// True when the rank fell into an equality bucket of the merged
    /// splitter tree (exact early exit without a filter pass).
    bool equality_exit = false;
    ShardAccounting acct;
};

template <typename T>
struct ShardedTopKResult {
    /// The k largest elements (unordered).
    std::vector<T> elements;
    /// The k-th largest element (the threshold).
    T threshold{};
    ShardAccounting acct;
};

template <typename T>
struct ShardedApproxSelectResult {
    /// The lower splitter of the global bucket the rank fell into (the
    /// first splitter for bucket 0).
    T value{};
    /// Exact bound on |true_rank(value) - rank|, composed from the exact
    /// global bucket counts (per-shard counts are exact, so the only error
    /// is splitter granularity; at most max_bucket).
    std::size_t rank_error_bound = 0;
    ShardAccounting acct;
};

/// Exact sharded selection of the 0-based `rank` over an input that may
/// exceed any single device's modeled memory.  Matches the CPU reference
/// exactly (same total order as the single-device pipeline, NaNs above
/// +inf).  float/double only.
template <typename T>
[[nodiscard]] Result<ShardedSelectResult<T>> try_sharded_select(simt::DeviceGroup& group,
                                                                std::span<const T> input,
                                                                std::size_t rank,
                                                                const ShardSelectConfig& cfg);

/// Sharded top-k (largest): finds the threshold via an exact sharded
/// selection, then gathers every element above it with one tripartition
/// count+filter pass per shard and one transfer per device, padding with
/// threshold copies.
template <typename T>
[[nodiscard]] Result<ShardedTopKResult<T>> try_sharded_topk(simt::DeviceGroup& group,
                                                            std::span<const T> input,
                                                            std::size_t k,
                                                            const ShardSelectConfig& cfg);

/// Approximate sharded selection: stops after the global count pass and
/// returns the lower splitter of the global bucket the rank fell into (the
/// first splitter for bucket 0), with the exact residual rank error.  One
/// full data pass less than the exact path and no merge filter traffic.
template <typename T>
[[nodiscard]] Result<ShardedApproxSelectResult<T>> try_sharded_approx_select(
    simt::DeviceGroup& group, std::span<const T> input, std::size_t rank,
    const ShardSelectConfig& cfg);

/// Streaming quantile estimator for unbounded telemetry feeds
/// (examples/quantile_telemetry.cpp): the first chunk's exact order
/// statistics build a fixed splitter tree, every chunk is then a single
/// count pass accumulating global bucket totals, and quantile() answers
/// from the accumulated counts with the exact residual rank error -- the
/// single-device degenerate case of the sharded approximate path, with
/// chunks arriving over time instead of over devices.
template <typename T>
class StreamingQuantile {
public:
    /// `cfg.splitter_buckets` controls resolution; `cfg.select` the count
    /// kernels.  The device reference must outlive the estimator.
    explicit StreamingQuantile(simt::Device& dev, ShardSelectConfig cfg = {});

    /// Folds one chunk into the sketch (builds the splitter tree from the
    /// first chunk; a pure count pass afterwards).
    [[nodiscard]] Status observe(std::span<const T> chunk);

    struct Estimate {
        T value{};
        /// The 0-based rank the estimate answers for.
        std::size_t rank = 0;
        /// Exact bound on |true_rank(value) - rank| over the observed
        /// stream.
        std::size_t rank_error_bound = 0;
        /// Non-NaN elements observed so far.
        std::size_t n = 0;
    };

    /// Quantile q in [0, 1] over everything observed so far.
    [[nodiscard]] Result<Estimate> quantile(double q) const;

    /// Elements observed so far (NaNs included).
    [[nodiscard]] std::size_t observed() const noexcept { return n_ + nan_; }
    [[nodiscard]] std::size_t nan_count() const noexcept { return nan_; }
    /// Launches charged by observe() calls so far.
    [[nodiscard]] std::uint64_t launches() const noexcept { return launches_; }

private:
    simt::Device* dev_;
    ShardSelectConfig cfg_;
    SearchTree<T> tree_;
    bool have_tree_ = false;
    /// Accumulated global bucket totals (int64: streams outgrow int32).
    std::vector<std::int64_t> totals_;
    std::size_t n_ = 0;
    std::size_t nan_ = 0;
    std::uint64_t launches_ = 0;
};

extern template Result<ShardedSelectResult<float>> try_sharded_select<float>(
    simt::DeviceGroup&, std::span<const float>, std::size_t, const ShardSelectConfig&);
extern template Result<ShardedSelectResult<double>> try_sharded_select<double>(
    simt::DeviceGroup&, std::span<const double>, std::size_t, const ShardSelectConfig&);
extern template Result<ShardedTopKResult<float>> try_sharded_topk<float>(
    simt::DeviceGroup&, std::span<const float>, std::size_t, const ShardSelectConfig&);
extern template Result<ShardedTopKResult<double>> try_sharded_topk<double>(
    simt::DeviceGroup&, std::span<const double>, std::size_t, const ShardSelectConfig&);
extern template Result<ShardedApproxSelectResult<float>> try_sharded_approx_select<float>(
    simt::DeviceGroup&, std::span<const float>, std::size_t, const ShardSelectConfig&);
extern template Result<ShardedApproxSelectResult<double>> try_sharded_approx_select<double>(
    simt::DeviceGroup&, std::span<const double>, std::size_t, const ShardSelectConfig&);
extern template class StreamingQuantile<float>;
extern template class StreamingQuantile<double>;

}  // namespace gpusel::core
