#pragma once
// Request/response contract of the selection service (docs/service.md).
//
// gpusel_server accepts select / top-k / argselect / quantile requests over
// float keys on a bounded queue and answers each with a Response carrying a
// typed core::Status -- every admitted request resolves to a result or a
// typed error, never hangs.  The structs here are the wire format of the
// in-process client library (server/service.hpp); the daemon and the load
// generator (tools/gpusel_loadgen) both speak it.
//
// Lifetime contract: Request::data is a non-owning view.  The caller must
// keep the underlying array alive until the request's future resolves (the
// load generator shares a few large immutable datasets across all requests
// for exactly this reason).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/quantile.hpp"
#include "core/status.hpp"

namespace gpusel::simt {
class DeviceGroup;
}  // namespace gpusel::simt

namespace gpusel::server {

/// The operations the service accepts (all over float keys; argselect
/// additionally returns the original index).
enum class RequestKind : std::uint8_t { select, topk, argselect, quantile };

[[nodiscard]] constexpr const char* request_kind_name(RequestKind k) noexcept {
    switch (k) {
        case RequestKind::select: return "select";
        case RequestKind::topk: return "topk";
        case RequestKind::argselect: return "argselect";
        case RequestKind::quantile: return "quantile";
    }
    return "?";
}

/// How a request was ultimately answered.
enum class ResponseMode : std::uint8_t {
    exact,     ///< the exact algorithm the caller asked for
    approx,    ///< the caller asked for approximate selection up front
    degraded,  ///< exact request downgraded to approximate under overload
};

/// One client request.
struct Request {
    RequestKind kind = RequestKind::select;
    /// Non-owning key view; must outlive the response future.
    std::span<const float> data;
    /// Ascending 0-based rank (select / argselect).
    std::size_t rank = 0;
    /// Top-k count (topk).
    std::size_t k = 0;
    /// Quantile position in [0, 1] (quantile).
    double q = 0.5;
    core::QuantileMethod quantile_method = core::QuantileMethod::nearest;
    /// Caller explicitly wants the cheap single-level approximation
    /// (select / quantile only; reported as ResponseMode::approx).
    bool approx = false;
    /// May the server downgrade this exact request to approximate when the
    /// queue delay crosses the degradation threshold?  (select / quantile
    /// only; a degraded answer reports its exact rank error.)
    bool allow_degrade = true;
    /// Fair-queuing bucket; each tenant gets its own bounded sub-queue and
    /// a round-robin share of every batch.
    int tenant = 0;
    /// Relative latency budget in simulated ns; 0 inherits the server's
    /// default_deadline_ns, and 0 there too means "no deadline".
    double deadline_ns = 0.0;
    /// Absolute simulated arrival time; < 0 stamps "now" at submission.
    /// The load generator pre-stamps Poisson arrivals here.
    double arrival_ns = -1.0;
};

/// One service answer.  status.ok() means value/values/index are valid for
/// the request's kind; otherwise the typed error explains the outcome
/// (SelectError::overloaded = shed at admission, deadline_exceeded =
/// rejected up front or aborted between pipeline levels, ...).
struct Response {
    core::Status status;
    ResponseMode mode = ResponseMode::exact;
    /// select / quantile: the (approximate) order statistic.
    /// argselect: the key at the requested rank.
    /// topk: the threshold (k-th largest).
    float value = 0.0f;
    /// topk: the k largest elements (unordered).
    std::vector<float> values;
    /// argselect: original position of `value`.
    std::uint32_t index = 0;
    /// Approx/degraded answers: exact rank error of the returned splitter
    /// and the level's a-priori bound (max_bucket / 2, Sec. II-C).
    std::size_t rank_error = 0;
    std::size_t rank_error_bound = 0;
    /// Simulated-clock milestones: arrival (admission stamp), start (the
    /// dispatch round's pickup) and finish (the round's batch join -- the
    /// service answers when the whole coalesced batch completes, see
    /// docs/service.md "Latency semantics").
    double arrival_ns = 0.0;
    double start_ns = 0.0;
    double finish_ns = 0.0;

    [[nodiscard]] double latency_ns() const noexcept { return finish_ns - arrival_ns; }
    [[nodiscard]] double queue_delay_ns() const noexcept { return start_ns - arrival_ns; }
};

/// Server tuning; the defaults serve the unit tests and the load
/// generator's nominal operating point.
struct ServerConfig {
    /// Bounded global queue: submissions past this shed with
    /// SelectError::overloaded.
    std::size_t queue_capacity = 256;
    /// Bounded per-tenant share: one tenant's burst cannot evict others.
    std::size_t tenant_queue_capacity = 64;
    /// Requests coalesced into one dispatch round (BatchExecutor batch).
    std::size_t max_batch = 16;
    /// Stream-fan width for the round's batch (BatchOptions::streams;
    /// 0 = GPUSEL_STREAMS, then min(batch, 8)).
    int streams = 0;
    /// Default relative deadline for requests that do not set one
    /// (0 = no deadline).
    double default_deadline_ns = 0.0;
    /// Queue delay past which degradable exact requests downgrade to
    /// approximate selection (0 = never degrade).
    double degrade_queue_delay_ns = 0.0;
    /// Up-front deadline feasibility check at admission (EWMA service-time
    /// estimate + backlog); disable to let infeasible requests run and be
    /// aborted between pipeline levels instead.
    bool admit_deadline_check = true;
    /// EWMA bootstrap for the per-element service-time estimate [ns/elem].
    double est_ns_per_elem = 2.0;
    /// Pipeline configuration shared by every request (stream is the
    /// server's base stream; per-request deadlines overlay deadline_ns).
    core::SampleSelectConfig select;
    /// Collect queue-depth counter samples and admission-decision instants
    /// for the chrome-trace export (simt/trace.hpp).
    bool record_trace = false;
    /// Out-of-core escape hatch: select/quantile/top-k requests whose data
    /// exceeds the shard threshold route to the sharded multi-device path
    /// (core/shard_select.hpp) on this group instead of the single-device
    /// batch.  Non-owning; must outlive the server.  nullptr disables the
    /// route (oversized requests then run -- and likely fault -- on the
    /// single device like before).
    simt::DeviceGroup* shard_group = nullptr;
    /// Elements above which a request counts as oversized; 0 derives the
    /// threshold from the group's per-device staging budget
    /// (core::kShardStagingFraction of its modeled capacity).
    std::size_t shard_threshold_elems = 0;
};

/// Aggregate service metrics; latencies cover completed requests only.
struct ServerMetrics {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;          ///< resolved with status.ok()
    std::uint64_t shed = 0;               ///< overloaded at admission
    std::uint64_t deadline_rejected = 0;  ///< rejected up front
    std::uint64_t deadline_aborted = 0;   ///< aborted between levels
    std::uint64_t degraded = 0;           ///< exact downgraded to approx
    std::uint64_t sharded = 0;            ///< routed to the sharded path
    std::uint64_t failed = 0;             ///< other non-ok terminal status
    std::vector<double> latencies_ns;

    /// Latency percentile in [0, 100] over completed requests (0 when none).
    [[nodiscard]] double latency_percentile(double pct) const;
};

}  // namespace gpusel::server
