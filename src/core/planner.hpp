#pragma once
// The adaptive backend planner (docs/planner.md): chooses which selection
// backend (core/backend.hpp) runs a given problem, from the problem shape
// (n, k, element width), a cheap host-side distribution probe, the
// GPUSEL_BACKEND environment override, and the device's RobustnessCounters
// feedback (a sampler that just thrashed -- resamples/fallbacks grew since
// the previous decision -- is evidence the distribution defeats sampling).
//
// Planning is pure host-side bookkeeping: the probe reads a handful of
// staged elements (host reads are untimed in this simulator, like every
// host-side driver decision), no kernel is launched, and when the planner
// picks the sample backend the subsequent launch sequence is byte-identical
// to the pre-planner code -- golden event streams are unchanged.
//
// Every decision is recorded as a simt::PlannerEvent on the device (the
// chrome-trace export renders them as instant events) and tallied into
// RobustnessCounters::backend_* so bench JSON shows which algorithm
// actually ran.

#include <cstdint>
#include <optional>
#include <span>

#include "core/backend.hpp"
#include "simt/device.hpp"

namespace gpusel::core {

/// Elements the distribution probe reads (evenly strided over the staged
/// buffer; host-side, untimed).
inline constexpr std::size_t kPlannerProbeSize = 64;
/// Probes whose dominant key reaches this share classify the input as
/// duplicate-heavy -> radix (its skip-filter descent resolves shared
/// digit prefixes without re-reading the data).
inline constexpr double kPlannerDominantFrac = 0.25;

/// What the planner learned from probing the staged data.
struct DistributionHints {
    /// Share of the probe held by its most frequent key, in [0, 1].
    double dominant_frac = 0.0;
    /// Distinct keys among the probed elements.
    std::size_t probe_distinct = 0;
    /// Elements actually probed (min(n, kPlannerProbeSize)).
    std::size_t probe_size = 0;
};

/// Probes `data` with kPlannerProbeSize evenly strided host reads.
/// For key/payload pairs the key alone is probed -- payloads are unique
/// indices, so including them would hide every duplicate.
template <typename T>
[[nodiscard]] DistributionHints probe_distribution(std::span<const T> data);

/// The problem shape a decision is made for.
struct PlanQuery {
    std::size_t n = 0;          ///< staged, NaN-free element count
    std::size_t k = 0;          ///< rank (selection) or k (top-k)
    bool topk = false;          ///< top-k accumulation vs single-rank
    bool multi = false;         ///< multi-rank bucket tree (sample only)
    std::size_t elem_size = 0;  ///< sizeof(T)
    std::size_t base_case_size = 0;
    /// resamples+fallbacks growth since the previous planned decision on
    /// this device (sampler-thrash feedback; 0 = healthy).  plan_selection
    /// zeroes the delta when the previous decision was for a problem of a
    /// dissimilar shape (different element width, or n outside 4x either
    /// way), so one workload's thrash never biases an unrelated one.
    std::uint64_t thrash_delta = 0;
    /// Quarantine bitmask (backend_bit per BackendKind): backends a
    /// supervisor's circuit breaker has taken out of rotation.  plan()
    /// treats them as infeasible and routes to the healthiest fallback;
    /// 0 (the default) changes nothing.
    std::uint32_t quarantined = 0;
};

struct PlanDecision {
    BackendKind backend = BackendKind::sample;
    /// One-line rationale, stable across runs (golden-tested).
    const char* reason = "";
    /// True when GPUSEL_BACKEND forced the choice.
    bool env_forced = false;
};

/// The pure decision function (the docs/planner.md decision table).
/// `forced` is the parsed environment override, applied when feasible.
[[nodiscard]] PlanDecision plan(const PlanQuery& q, const DistributionHints& h,
                                std::optional<BackendKind> forced);

/// Full planning step for one selection about to run on `stream`: probes
/// `data`, reads GPUSEL_BACKEND, consumes the device's thrash feedback,
/// records the PlannerEvent and tallies RobustnessCounters::backend_*.
template <typename T>
[[nodiscard]] PlanDecision plan_selection(simt::Device& dev, std::span<const T> data,
                                          PlanQuery q, int stream);

/// Records a decision made structurally by a front-end (the batch
/// executor's fused-bitonic groups, multiselect's bucket tree) so the
/// planner log and backend tallies still cover every selection.
void record_planned_decision(simt::Device& dev, const PlanDecision& d, std::uint64_t n,
                             std::uint64_t k, int stream);

/// Fraction of a device's modeled memory one shard's staged input may
/// occupy.  The rest is headroom for the pipeline's oracles (1 byte/elem),
/// int32 scratch and the ping-pong bucket buffers, so a shard sized
/// against this budget keeps the whole per-shard descent within the
/// device's capacity.
inline constexpr double kShardStagingFraction = 0.25;

/// The shard-count decision for an out-of-core sharded selection
/// (core/shard_select.hpp): how many chunks to cut n into so every chunk's
/// staged data plus pipeline scratch fits one device's modeled memory.
struct ShardPlan {
    /// Number of shards (>= 1; 1 means the input fits one device).
    std::size_t shards = 1;
    /// Maximum staged elements per shard.
    std::size_t shard_elems = 0;
    /// Stable one-line rationale (mirrors PlanDecision::reason).
    const char* reason = "";
};

/// Pure decision function: chunks n elements of elem_size bytes against a
/// device's modeled capacity; num_devices only rounds small multi-shard
/// counts up so every device gets work.
[[nodiscard]] ShardPlan plan_shard_count(std::size_t n, std::size_t elem_size,
                                         std::size_t device_capacity_bytes, int num_devices);

extern template DistributionHints probe_distribution<float>(std::span<const float>);
extern template DistributionHints probe_distribution<double>(std::span<const double>);
extern template DistributionHints probe_distribution<ArgPair>(std::span<const ArgPair>);
extern template PlanDecision plan_selection<float>(simt::Device&, std::span<const float>,
                                                   PlanQuery, int);
extern template PlanDecision plan_selection<double>(simt::Device&, std::span<const double>,
                                                    PlanQuery, int);
extern template PlanDecision plan_selection<ArgPair>(simt::Device&, std::span<const ArgPair>,
                                                     PlanQuery, int);

}  // namespace gpusel::core
