#pragma once
// SelectServer: the long-lived selection service (docs/service.md).
//
// A bounded, tenant-fair request queue in front of the selection stack.
// submit() performs admission control on the caller's thread (validation,
// bounded-queue shedding, up-front deadline feasibility against an EWMA
// service-time estimate) and returns a std::future<Response>; a dispatch
// round -- pump(), or the internal dispatcher thread between start()/stop()
// -- picks up to max_batch requests round-robin across tenant queues,
// coalesces the exact select/quantile ones into one BatchExecutor batch
// over the stream pool, fans top-k through try_topk_largest_batch, runs
// approximate/degraded/argselect requests serially, and resolves every
// picked future.  Overload-safety invariants:
//
//   * every admitted request resolves to a result or a typed error --
//     nothing hangs, including through drain() and the destructor;
//   * the queue never exceeds queue_capacity (global) or
//     tenant_queue_capacity (per tenant): excess submissions shed
//     immediately with SelectError::overloaded;
//   * a request that cannot meet its deadline is rejected up front
//     (SelectError::deadline_exceeded) instead of half-executed, and the
//     per-problem deadline propagated into the pipeline aborts descents
//     that overrun anyway (defence in depth);
//   * under queue delay past degrade_queue_delay_ns, degradable exact
//     requests downgrade to single-level approximate selection and report
//     their exact rank error (graceful degradation);
//   * a faulting device fails requests, never hangs them: each request's
//     device work runs under the bounded fault retry, and one whose
//     retries run out resolves with its typed fault.
//
// Threading: submit() is safe from any thread (it only touches the queue
// under the mutex -- never the device).  All device work happens on the
// single thread that calls pump()/drain(), or on the internal dispatcher
// thread between start() and stop().  Mixing external pump() calls with a
// running dispatcher thread is not supported.
//
// Clock: the service lives on the simulated clock.  A request's arrival is
// its arrival_ns stamp (or "now" when negative); a dispatch round starts at
// max(device stream clock, earliest picked arrival) -- an idle device
// fast-forwards to the arrival instead of charging idle gaps as latency --
// and every picked request finishes at the round's batch join.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "server/request.hpp"
#include "simt/device.hpp"

namespace gpusel::server {

class SelectServer {
public:
    SelectServer(simt::Device& dev, ServerConfig cfg);
    /// Stops the dispatcher thread (if running) and resolves every queued
    /// request with SelectError::overloaded ("server shutting down") --
    /// no future is ever abandoned.  Call drain() first for a clean
    /// shutdown that completes in-flight work.
    ~SelectServer();
    SelectServer(const SelectServer&) = delete;
    SelectServer& operator=(const SelectServer&) = delete;

    /// Admission control + enqueue.  Always returns a future that will
    /// resolve; rejected requests resolve immediately with a typed error.
    [[nodiscard]] std::future<Response> submit(Request req);

    /// Runs one dispatch round on the caller's thread.  Returns false when
    /// no request was ready (empty queue).
    bool pump();
    /// Runs one dispatch round only if it would start before `limit_ns` on
    /// the simulated clock (the load generator's open-loop driver: let the
    /// server catch up to the next arrival, no further).  Returns false
    /// when nothing is ready or the round would start at/after the limit.
    bool pump_until(double limit_ns);
    /// Stops accepting new work and pumps until the queue is empty: every
    /// already-admitted request completes (clean drain semantics).
    void drain();
    /// Re-opens admission after drain().
    void reopen();

    /// Starts the internal dispatcher thread (blocking-queue mode).
    void start();
    /// Stops the dispatcher thread after it drains the queue.
    void stop();

    /// Simulated-clock "now" as the server tracks it: the base stream's
    /// busy-until, monotone across rounds.
    [[nodiscard]] double now_ns() const;
    /// Queue depth across all tenants (snapshot).
    [[nodiscard]] std::size_t queue_depth() const;
    /// Aggregate metrics (snapshot under the queue lock; call when
    /// quiescent for exact totals).
    [[nodiscard]] ServerMetrics metrics() const;
    /// Telemetry for the chrome-trace export (record_trace only).
    [[nodiscard]] std::vector<simt::TraceCounter> trace_counters() const;
    [[nodiscard]] std::vector<simt::TraceInstant> trace_instants() const;

    /// Trace tid the telemetry tracks render under (above any realistic
    /// stream id so service lanes group below the kernel lanes).
    static constexpr int kQueueTrack = 1000;
    static constexpr int kAdmissionTrack = 1001;

private:
    struct Pending {
        Request req;
        std::promise<Response> promise;
        double arrival_ns = 0.0;
        /// Absolute deadline (arrival + relative budget); 0 = none.
        double deadline_abs_ns = 0.0;
        /// Admission-time service estimate (backlog accounting).
        double est_cost_ns = 0.0;
    };

    /// One picked request en route through a dispatch round.
    struct InFlight {
        Pending p;
        Response resp;
        bool resolved = false;  ///< answered before the batched phase
    };

    // -- admission (queue lock held) ---------------------------------------
    core::Status validate(const Request& req) const;
    void note_trace_counter_locked(double now, int track, const char* name, double value);
    void note_trace_instant_locked(double now, int track, const char* name, std::string detail);

    // -- dispatch (device thread only) -------------------------------------
    bool pump_internal(double limit_ns, bool limited);
    void run_round(std::vector<Pending> picked, double round_start);
    void dispatcher_loop();

    simt::Device& dev_;
    ServerConfig cfg_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    /// Tenant queues in a stable map; DRR pickup rotates over them.
    std::map<int, std::deque<Pending>> tenants_;
    std::size_t queued_ = 0;
    /// DRR resume point: the tenant after the last one served.
    int next_tenant_ = 0;
    bool accepting_ = true;
    bool stop_requested_ = false;
    std::thread dispatcher_;
    bool dispatcher_running_ = false;

    /// Base-stream busy-until as of the last round (submit()-side view of
    /// the device clock; submit never touches the device).
    double busy_until_ns_ = 0.0;
    /// Sum of est_cost_ns over queued requests (admission backlog).
    double backlog_ns_ = 0.0;
    /// EWMA of observed ns per element across rounds.
    double ewma_ns_per_elem_ = 0.0;

    ServerMetrics metrics_;
    std::vector<simt::TraceCounter> trace_counters_;
    std::vector<simt::TraceInstant> trace_instants_;
};

}  // namespace gpusel::server
