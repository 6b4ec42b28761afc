#pragma once
// The backend planner (docs/planner.md): chooses which selection backend
// (core/backend.hpp) runs a given problem, from its shape alone.  A
// multi-rank tree or an input above the base case runs the paper's sampled
// descent; an input that fits the base case runs the single-block bitonic
// sort; a supervisor's quarantine (the server's circuit breakers) can
// reroute between the two.
//
// Planning is pure host-side bookkeeping: it reads no data, launches no
// kernel, and advances no clock, so the chosen backend's event stream
// starts where the selection does.
//
// Every decision is recorded as a simt::PlannerEvent on the device (the
// chrome-trace export renders them as instant events) and tallied into
// RobustnessCounters::backend_* so bench JSON shows which algorithm
// actually ran.

#include <cstdint>
#include <span>

#include "core/backend.hpp"
#include "simt/device.hpp"

namespace gpusel::core {

/// Elements the distribution probe reads (evenly strided; host-side,
/// untimed).
inline constexpr std::size_t kPlannerProbeSize = 64;

/// What a probe of the staged data shows.  No planner rule reads it; the
/// bench suite reports core.planner.probe_host_us from it.
struct DistributionHints {
    /// Share of the probe held by its most frequent key, in [0, 1].
    double dominant_frac = 0.0;
    /// Distinct keys among the probed elements.
    std::size_t probe_distinct = 0;
    /// Elements actually probed (min(n, kPlannerProbeSize)).
    std::size_t probe_size = 0;
};

/// Probes `data` with kPlannerProbeSize evenly strided host reads (kept
/// for the bench suite's core.planner.probe_host_us row).  For key/payload
/// pairs the key alone is probed -- payloads are unique indices, so
/// including them would hide every duplicate.
template <typename T>
[[nodiscard]] DistributionHints probe_distribution(std::span<const T> data);

/// The problem shape a decision is made for.
struct PlanQuery {
    std::size_t n = 0;   ///< staged, NaN-free element count
    std::size_t k = 0;   ///< rank (selection) or k (top-k)
    bool multi = false;  ///< multi-rank bucket tree (sample only)
    std::size_t base_case_size = 0;
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
};

/// The pure decision function (the docs/planner.md decision table).
[[nodiscard]] PlanDecision plan(const PlanQuery& q);

/// Full planning step for one selection about to run on `stream`: reads
/// the device's quarantine mask, plans, records the PlannerEvent and
/// tallies RobustnessCounters::backend_*.
[[nodiscard]] PlanDecision plan_selection(simt::Device& dev, PlanQuery q, int stream);

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
extern template DistributionHints probe_distribution<ArgPair>(std::span<const ArgPair>);

}  // namespace gpusel::core
