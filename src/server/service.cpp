#include "server/service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/approx_select.hpp"
#include "core/argselect.hpp"
#include "core/batch_executor.hpp"
#include "core/planner.hpp"
#include "core/shard_select.hpp"
#include "core/topk.hpp"
#include "simt/streamsan.hpp"
#include "simt/topology.hpp"

namespace gpusel::server {

namespace {

using core::SelectError;
using core::Status;

/// Fixed per-request overhead of the admission service estimate [sim-ns]:
/// launch latency + staging, amortized.  The EWMA refines the per-element
/// slope; the intercept only has to be the right order of magnitude.
constexpr double kEstBaseNs = 500.0;

/// Terminal codes that indicate the backend (not the request) is sick --
/// these feed the circuit breaker as failures.
bool is_fault_code(SelectError e) noexcept {
    switch (e) {
        case SelectError::allocation_failed:
        case SelectError::launch_failed:
        case SelectError::no_progress:
        case SelectError::internal:
        case SelectError::sanitizer_violation:
            return true;
        default:
            return false;
    }
}

double percentile(std::vector<double> v, double pct) {
    if (v.empty()) return 0.0;
    const double pos = pct / 100.0 * static_cast<double>(v.size() - 1);
    auto idx = static_cast<std::size_t>(pos);
    idx = std::min(idx, v.size() - 1);
    auto nth = v.begin() + static_cast<std::ptrdiff_t>(idx);
    std::nth_element(v.begin(), nth, v.end());
    return *nth;
}

/// Elements above which a request is oversized for the single device and
/// routes to the sharded path.  The explicit config threshold wins; the
/// derived default is the group's per-device staging budget, so anything
/// the single-device pipeline could not stage within its headroom peels
/// off to the out-of-core layer.
std::size_t shard_threshold(const ServerConfig& cfg) noexcept {
    if (cfg.shard_group == nullptr) return std::numeric_limits<std::size_t>::max();
    if (cfg.shard_threshold_elems > 0) return cfg.shard_threshold_elems;
    const auto staging = static_cast<std::size_t>(
        static_cast<double>(cfg.shard_group->mem_capacity_bytes()) *
        core::kShardStagingFraction);
    return std::max<std::size_t>(1, staging / sizeof(float));
}

}  // namespace

double ServerMetrics::latency_percentile(double pct) const {
    return percentile(latencies_ns, pct);
}

SelectServer::SelectServer(simt::Device& dev, ServerConfig cfg)
    : dev_(dev), cfg_(std::move(cfg)), breakers_(cfg_.breaker) {
    // A constructor cannot return a Status: a bad config throws.
    if (Status vs = cfg_.select.validate(/*exact=*/true); !vs.ok()) {
        throw std::invalid_argument(vs.message);
    }
    if (cfg_.max_batch == 0) cfg_.max_batch = 1;
    busy_until_ns_ = dev_.stream_clock(cfg_.select.stream);
}

SelectServer::~SelectServer() {
    if (dispatcher_running_) stop();
    // Resolve anything still queued: no future is ever abandoned.
    std::map<int, std::deque<Pending>> leftover;
    {
        std::lock_guard<std::mutex> lk(mu_);
        accepting_ = false;
        leftover.swap(tenants_);
        queued_ = 0;
        backlog_ns_ = 0.0;
    }
    for (auto& [tenant, q] : leftover) {
        for (Pending& p : q) {
            Response r;
            r.arrival_ns = p.arrival_ns;
            r.start_ns = r.finish_ns = p.arrival_ns;
            r.status = Status::failure(SelectError::overloaded, "server shutting down");
            p.promise.set_value(std::move(r));
        }
    }
}

Status SelectServer::validate(const Request& req) const {
    const std::size_t n = req.data.size();
    if (n == 0) return Status::failure(SelectError::empty_input, "server: empty request data");
    switch (req.kind) {
        case RequestKind::select:
        case RequestKind::argselect:
            if (req.rank >= n) {
                return Status::failure(SelectError::rank_out_of_range,
                                       "server: rank out of range");
            }
            break;
        case RequestKind::topk:
            if (req.k == 0 || req.k > n) {
                return Status::failure(SelectError::rank_out_of_range,
                                       "server: k out of range");
            }
            break;
        case RequestKind::quantile:
            // try_quantile_rank validates q (NaN / out of [0, 1]).
            break;
    }
    if (req.approx &&
        (req.kind == RequestKind::topk || req.kind == RequestKind::argselect)) {
        return Status::failure(SelectError::invalid_argument,
                               "server: approx mode applies to select/quantile only");
    }
    if (req.deadline_ns < 0.0) {
        return Status::failure(SelectError::invalid_argument,
                               "server: deadline_ns must be >= 0");
    }
    return Status::success();
}

void SelectServer::note_trace_counter_locked(double now, int track, const char* name,
                                             double value) {
    if (!cfg_.record_trace) return;
    trace_counters_.push_back({now, track, name, value});
}

void SelectServer::note_trace_instant_locked(double now, int track, const char* name,
                                             std::string detail) {
    if (!cfg_.record_trace) return;
    trace_instants_.push_back({now, track, name, std::move(detail)});
}

std::future<Response> SelectServer::submit(Request req) {
    std::promise<Response> promise;
    std::future<Response> fut = promise.get_future();

    const Status v = validate(req);
    std::lock_guard<std::mutex> lk(mu_);
    ++metrics_.submitted;
    const double arrival = req.arrival_ns >= 0.0 ? req.arrival_ns : busy_until_ns_;

    auto reject = [&](Status s, const char* trace_name, std::uint64_t& counter) {
        ++counter;
        note_trace_instant_locked(arrival, kAdmissionTrack, trace_name,
                                  std::string(request_kind_name(req.kind)) +
                                      " tenant=" + std::to_string(req.tenant));
        Response r;
        r.status = std::move(s);
        r.arrival_ns = arrival;
        r.start_ns = r.finish_ns = arrival;
        promise.set_value(std::move(r));
        return std::move(fut);
    };

    if (!v.ok()) return reject(v, "invalid", metrics_.failed);
    if (req.kind == RequestKind::quantile) {
        // Quantile maps to a rank at admission; from here on it is a
        // select with the computed rank.
        auto rank = core::try_quantile_rank(req.data.size(), req.q, req.quantile_method);
        if (!rank.ok()) return reject(rank.status(), "invalid", metrics_.failed);
        req.rank = rank.value();
    }
    if (!accepting_) {
        return reject(Status::failure(SelectError::overloaded, "server draining"), "shed",
                      metrics_.shed);
    }
    if (queued_ >= cfg_.queue_capacity) {
        return reject(Status::failure(SelectError::overloaded, "global queue full"), "shed",
                      metrics_.shed);
    }
    std::deque<Pending>& tq = tenants_[req.tenant];
    if (tq.size() >= cfg_.tenant_queue_capacity) {
        return reject(
            Status::failure(SelectError::overloaded,
                            "tenant queue full (tenant " + std::to_string(req.tenant) + ")"),
            "shed", metrics_.shed);
    }

    const double rel_deadline =
        req.deadline_ns > 0.0 ? req.deadline_ns : cfg_.default_deadline_ns;
    const double deadline_abs = rel_deadline > 0.0 ? arrival + rel_deadline : 0.0;
    const double per_elem =
        ewma_ns_per_elem_ > 0.0 ? ewma_ns_per_elem_ : cfg_.est_ns_per_elem;
    const double est = kEstBaseNs + per_elem * static_cast<double>(req.data.size());

    if (cfg_.admit_deadline_check && deadline_abs > 0.0) {
        // Up-front feasibility: the request would start after the device's
        // known backlog; if even the estimate cannot land it inside its
        // budget, reject now rather than half-executing it.
        const double est_start = std::max(busy_until_ns_, arrival) + backlog_ns_;
        if (est_start + est > deadline_abs) {
            return reject(Status::failure(SelectError::deadline_exceeded,
                                          "infeasible deadline at admission"),
                          "deadline_reject", metrics_.deadline_rejected);
        }
    }

    Pending p;
    p.req = req;
    p.promise = std::move(promise);
    p.arrival_ns = arrival;
    p.deadline_abs_ns = deadline_abs;
    p.est_cost_ns = est;
    tq.push_back(std::move(p));
    ++queued_;
    backlog_ns_ += est;
    ++metrics_.admitted;
    note_trace_counter_locked(arrival, kQueueTrack, "queue_depth",
                              static_cast<double>(queued_));
    note_trace_instant_locked(arrival, kAdmissionTrack, "admit",
                              std::string(request_kind_name(req.kind)) +
                                  " tenant=" + std::to_string(req.tenant));
    cv_.notify_one();
    return fut;
}

bool SelectServer::pump() { return pump_internal(0.0, /*limited=*/false); }

bool SelectServer::pump_until(double limit_ns) {
    return pump_internal(limit_ns, /*limited=*/true);
}

bool SelectServer::pump_internal(double limit_ns, bool limited) {
    std::vector<Pending> picked;
    double round_start = 0.0;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (queued_ == 0) return false;

        double earliest = std::numeric_limits<double>::infinity();
        for (const auto& [tenant, q] : tenants_) {
            if (!q.empty()) earliest = std::min(earliest, q.front().arrival_ns);
        }
        round_start = std::max(busy_until_ns_, earliest);
        if (limited && round_start >= limit_ns) return false;

        // Round-robin fair pickup: one request per tenant per cycle,
        // resuming after the tenant served last round, until the batch is
        // full or no tenant has an arrived request left.
        picked.reserve(cfg_.max_batch);
        int last_served = next_tenant_;
        bool progress = true;
        while (picked.size() < cfg_.max_batch && progress) {
            progress = false;
            auto it = tenants_.upper_bound(next_tenant_);
            for (std::size_t visited = 0; visited < tenants_.size() && picked.size() < cfg_.max_batch;
                 ++visited) {
                if (it == tenants_.end()) it = tenants_.begin();
                std::deque<Pending>& q = it->second;
                if (!q.empty() && q.front().arrival_ns <= round_start) {
                    picked.push_back(std::move(q.front()));
                    q.pop_front();
                    last_served = it->first;
                    progress = true;
                }
                ++it;
            }
            next_tenant_ = last_served;
        }
        if (picked.empty()) return false;
        queued_ -= picked.size();
        for (const Pending& p : picked) backlog_ns_ = std::max(0.0, backlog_ns_ - p.est_cost_ns);
        note_trace_counter_locked(round_start, kQueueTrack, "queue_depth",
                                  static_cast<double>(queued_));
    }
    run_round(std::move(picked), round_start);
    return true;
}

void SelectServer::run_round(std::vector<Pending> picked, double round_start) {
    const int base = cfg_.select.stream;
    // Fast-forward an idle device to the round start so idle gaps between
    // bursts are not charged as service latency.  advance_stream, not
    // wait_event: the round start is a host scheduling decision, not a
    // recorded event, so it must not look like an ordering edge (StreamSan
    // would rightly flag a wait on a timestamp nothing recorded).
    dev_.advance_stream(base, round_start);
    const simt::RobustnessCounters rc0 = dev_.robustness();
    const std::uint32_t mask0 = breakers_.sync(dev_, round_start);

    std::vector<InFlight> fl;
    fl.reserve(picked.size());
    for (Pending& p : picked) {
        InFlight f;
        f.p = std::move(p);
        f.resp.arrival_ns = f.p.arrival_ns;
        f.resp.start_ns = round_start;
        f.resp.finish_ns = round_start;
        fl.push_back(std::move(f));
    }

    // Pickup-time deadline recheck: a request that already missed its
    // deadline while queued resolves immediately with the typed error
    // rather than burning device time on an answer nobody can use.
    std::size_t deadline_missed_at_pickup = 0;
    for (InFlight& f : fl) {
        if (f.p.deadline_abs_ns > 0.0 && round_start >= f.p.deadline_abs_ns) {
            f.resp.status = Status::failure(SelectError::deadline_exceeded,
                                            "deadline expired while queued");
            f.resolved = true;
            ++deadline_missed_at_pickup;
        }
    }

    // Degradation ladder (docs/service.md): queue delay past the threshold
    // downgrades degradable exact select/quantile requests to the
    // single-level approximation (bounded rank error, reported).
    std::vector<std::size_t> batch_idx;   // exact select/quantile
    std::vector<std::size_t> approx_idx;  // approx-by-request or degraded
    std::vector<std::size_t> topk_idx;
    std::vector<std::size_t> arg_idx;
    std::vector<std::size_t> shard_idx;  // oversized -> sharded multi-device
    const std::size_t oversized_elems = shard_threshold(cfg_);
    for (std::size_t i = 0; i < fl.size(); ++i) {
        InFlight& f = fl[i];
        if (f.resolved) continue;
        const Request& r = f.p.req;
        const bool selectish =
            r.kind == RequestKind::select || r.kind == RequestKind::quantile;
        if (r.data.size() > oversized_elems && (selectish || r.kind == RequestKind::topk)) {
            // Oversized requests peel off to the out-of-core sharded path
            // (argselect stays single-device: the shard layer is key-only).
            if (selectish && r.approx) f.resp.mode = ResponseMode::approx;
            shard_idx.push_back(i);
        } else if (selectish && r.approx) {
            f.resp.mode = ResponseMode::approx;
            approx_idx.push_back(i);
        } else if (selectish && r.allow_degrade && cfg_.degrade_queue_delay_ns > 0.0 &&
                   round_start - f.p.arrival_ns > cfg_.degrade_queue_delay_ns) {
            f.resp.mode = ResponseMode::degraded;
            approx_idx.push_back(i);
        } else if (selectish) {
            batch_idx.push_back(i);
        } else if (r.kind == RequestKind::topk) {
            topk_idx.push_back(i);
        } else {
            arg_idx.push_back(i);
        }
    }

    std::size_t executed_elems = 0;

    // Exact select/quantile requests coalesce into one BatchExecutor batch
    // over the stream pool; per-problem deadlines ride into the pipeline.
    if (!batch_idx.empty()) {
        std::vector<core::BatchProblem<float>> problems;
        problems.reserve(batch_idx.size());
        for (const std::size_t i : batch_idx) {
            problems.push_back({fl[i].p.req.data, fl[i].p.req.rank, fl[i].p.deadline_abs_ns});
            executed_elems += fl[i].p.req.data.size();
        }
        core::BatchExecutor<float> ex(dev_, cfg_.select,
                                      core::BatchOptions{.streams = cfg_.streams});
        auto res = ex.run(std::span<const core::BatchProblem<float>>(problems));
        if (!res.ok()) {
            for (const std::size_t i : batch_idx) {
                fl[i].resp.status = res.status();
                fl[i].resolved = true;
            }
        } else {
            const auto& items = res.value().items;
            for (std::size_t j = 0; j < batch_idx.size(); ++j) {
                InFlight& f = fl[batch_idx[j]];
                if (items[j].status.ok()) {
                    f.resp.value = items[j].value;
                } else {
                    f.resp.status = items[j].status;
                }
                f.resolved = true;
            }
        }
    }

    // Top-k requests fan over the stream pool as one batch as well.
    if (!topk_idx.empty()) {
        std::vector<core::TopKBatchProblem<float>> problems;
        problems.reserve(topk_idx.size());
        for (const std::size_t i : topk_idx) {
            problems.push_back({fl[i].p.req.data, fl[i].p.req.k});
            executed_elems += fl[i].p.req.data.size();
        }
        auto res = core::try_topk_largest_batch<float>(
            dev_, std::span<const core::TopKBatchProblem<float>>(problems), cfg_.select,
            core::BatchOptions{.streams = cfg_.streams});
        if (!res.ok()) {
            for (const std::size_t i : topk_idx) {
                fl[i].resp.status = res.status();
                fl[i].resolved = true;
            }
        } else {
            auto& items = res.value().items;
            for (std::size_t j = 0; j < topk_idx.size(); ++j) {
                InFlight& f = fl[topk_idx[j]];
                f.resp.value = items[j].threshold;
                f.resp.values = std::move(items[j].elements);
                f.resolved = true;
            }
        }
    }

    // Approximate (requested or degraded) selections: one bucketing level
    // each, serially on the base stream -- cheap by construction.
    for (const std::size_t i : approx_idx) {
        InFlight& f = fl[i];
        executed_elems += f.p.req.data.size();
        core::SampleSelectConfig acfg = cfg_.select;
        auto res = core::try_approx_select<float>(dev_, f.p.req.data, f.p.req.rank, acfg);
        if (res.ok()) {
            f.resp.value = res.value().value;
            f.resp.rank_error = res.value().rank_error;
            f.resp.rank_error_bound = res.value().max_bucket / 2;
            f.resp.backend = "sample";
        } else {
            f.resp.status = res.status();
        }
        f.resolved = true;
        if (f.resp.mode == ResponseMode::degraded) {
            std::lock_guard<std::mutex> lk(mu_);
            note_trace_instant_locked(round_start, kAdmissionTrack, "degrade",
                                      "tenant=" + std::to_string(f.p.req.tenant));
        }
    }

    // Oversized requests run serially through the sharded multi-device
    // front-ends on the configured group.  The group lives on its own
    // simulated clock; the round charges the sharded work's simulated
    // duration onto the server's base stream so latency metrics and the
    // EWMA see the real cost.
    double shard_ns = 0.0;
    for (const std::size_t i : shard_idx) {
        InFlight& f = fl[i];
        simt::DeviceGroup& g = *cfg_.shard_group;
        core::ShardSelectConfig scfg;
        scfg.select = cfg_.select;
        scfg.select.stream = 0;  // the shard layer leases its own streams
        // The deadline is on this device's clock, which the group's devices
        // do not share: the group gets the budget left when this call
        // starts (after the round's single-device and earlier sharded
        // work), counted from the group's own clock.
        const double budget_left = f.p.deadline_abs_ns - (dev_.stream_clock(base) + shard_ns);
        if (f.p.deadline_abs_ns > 0.0) scfg.select.deadline_ns = g.elapsed_ns() + budget_left;
        const bool spent = f.p.deadline_abs_ns > 0.0 && budget_left <= 0.0;
        if (!spent) executed_elems += f.p.req.data.size();
        if (spent) {
            f.resp.status = Status::failure(SelectError::deadline_exceeded,
                                            "deadline spent before the sharded call");
        } else if (f.p.req.kind == RequestKind::topk) {
            auto res = core::try_sharded_topk<float>(g, f.p.req.data, f.p.req.k, scfg);
            if (res.ok()) {
                f.resp.value = res.value().threshold;
                f.resp.values = std::move(res.value().elements);
                shard_ns += res.value().acct.sim_ns;
            } else {
                f.resp.status = res.status();
            }
        } else if (f.resp.mode == ResponseMode::approx) {
            auto res =
                core::try_sharded_approx_select<float>(g, f.p.req.data, f.p.req.rank, scfg);
            if (res.ok()) {
                f.resp.value = res.value().value;
                f.resp.rank_error_bound = res.value().rank_error_bound;
                shard_ns += res.value().acct.sim_ns;
            } else {
                f.resp.status = res.status();
            }
        } else {
            auto res = core::try_sharded_select<float>(g, f.p.req.data, f.p.req.rank, scfg);
            if (res.ok()) {
                f.resp.value = res.value().value;
                shard_ns += res.value().acct.sim_ns;
            } else {
                f.resp.status = res.status();
            }
        }
        f.resp.backend = "sample";
        f.resolved = true;
        std::lock_guard<std::mutex> lk(mu_);
        ++metrics_.sharded;
        note_trace_instant_locked(round_start, kAdmissionTrack, "shard_route",
                                  "tenant=" + std::to_string(f.p.req.tenant) +
                                      " n=" + std::to_string(f.p.req.data.size()));
    }
    if (shard_ns > 0.0) {
        dev_.advance_stream(base, std::max(round_start, dev_.stream_clock(base)) + shard_ns);
    }

    // Argselect runs the key/payload pipeline serially (its staging pass
    // builds ArgPairs, which the float batch cannot share).
    for (const std::size_t i : arg_idx) {
        InFlight& f = fl[i];
        executed_elems += f.p.req.data.size();
        core::SampleSelectConfig acfg = cfg_.select;
        if (f.p.deadline_abs_ns > 0.0) acfg.deadline_ns = f.p.deadline_abs_ns;
        auto res = core::try_argselect(dev_, f.p.req.data, f.p.req.rank, acfg);
        if (res.ok()) {
            f.resp.value = res.value().key;
            f.resp.index = res.value().index;
        } else {
            f.resp.status = res.status();
        }
        f.resolved = true;
    }

    const double finish = dev_.stream_clock(base);

    // Feed the breakers: backends planned during this round (the
    // per-backend decision tallies moved) succeed or fail together with the
    // round.  Terminal fault codes and heavy fault-retry pressure (retries
    // that succeeded, but only just) both count as failure evidence.
    const simt::RobustnessCounters& rc1 = dev_.robustness();
    const bool saw[] = {rc1.backend_sample != rc0.backend_sample,
                        rc1.backend_bitonic != rc0.backend_bitonic};
    bool any_fault = false;
    for (const InFlight& f : fl) {
        if (!f.resp.status.ok() && is_fault_code(f.resp.status.code)) any_fault = true;
    }
    const std::uint64_t retry_delta = (rc1.alloc_retries + rc1.launch_retries) -
                                      (rc0.alloc_retries + rc0.launch_retries);
    const bool round_failed = any_fault || retry_delta >= cfg_.breaker.retry_pressure_threshold;
    const bool any_seen = saw[0] || saw[1];
    for (const core::BackendKind k : core::kBackends) {
        const bool used = any_seen ? saw[static_cast<std::size_t>(k)]
                                   : k == core::BackendKind::sample;
        if (!used) continue;
        if (round_failed) {
            breakers_.of(k).record_failure(finish);
        } else {
            breakers_.of(k).record_success(finish);
        }
    }
    const std::uint32_t mask1 = breakers_.sync(dev_, finish);

    // Resolve every picked future and fold the round into the metrics.
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (mask1 != mask0) {
            note_trace_instant_locked(finish, kBreakerTrack, "breaker_mask",
                                      "mask=" + std::to_string(mask1));
        }
        busy_until_ns_ = std::max(busy_until_ns_, finish);
        if (executed_elems > 0 && finish > round_start) {
            const double obs = (finish - round_start) / static_cast<double>(executed_elems);
            ewma_ns_per_elem_ =
                ewma_ns_per_elem_ <= 0.0 ? obs : 0.8 * ewma_ns_per_elem_ + 0.2 * obs;
        }
        metrics_.deadline_rejected += deadline_missed_at_pickup;
        for (InFlight& f : fl) {
            const bool ran = !(f.p.deadline_abs_ns > 0.0 &&
                               round_start >= f.p.deadline_abs_ns);  // pickup reject?
            if (ran) f.resp.finish_ns = finish;
            if (f.resp.status.ok()) {
                ++metrics_.completed;
                if (f.resp.mode == ResponseMode::degraded) ++metrics_.degraded;
                metrics_.latencies_ns.push_back(f.resp.latency_ns());
            } else if (f.resp.status.code == SelectError::deadline_exceeded) {
                if (ran) ++metrics_.deadline_aborted;
            } else {
                ++metrics_.failed;
            }
        }
    }
    for (InFlight& f : fl) f.p.promise.set_value(std::move(f.resp));
}

void SelectServer::drain() {
    {
        std::lock_guard<std::mutex> lk(mu_);
        accepting_ = false;
    }
    if (dispatcher_running_) {
        // The dispatcher owns the device; wait for it to empty the queue.
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return queued_ == 0; });
        return;
    }
    while (pump()) {
    }
}

void SelectServer::reopen() {
    std::lock_guard<std::mutex> lk(mu_);
    accepting_ = true;
}

void SelectServer::start() {
    if (dispatcher_running_) return;
    stop_requested_ = false;
    dispatcher_running_ = true;
    dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

void SelectServer::stop() {
    if (!dispatcher_running_) return;
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_requested_ = true;
    }
    cv_.notify_all();
    dispatcher_.join();
    dispatcher_running_ = false;
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_requested_ = false;
    }
}

void SelectServer::dispatcher_loop() {
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [&] { return queued_ > 0 || stop_requested_; });
            if (stop_requested_ && queued_ == 0) return;
        }
        pump();
        cv_.notify_all();  // wake drain()/stop() waiters watching queued_
    }
}

double SelectServer::now_ns() const {
    std::lock_guard<std::mutex> lk(mu_);
    return busy_until_ns_;
}

std::size_t SelectServer::queue_depth() const {
    std::lock_guard<std::mutex> lk(mu_);
    return queued_;
}

ServerMetrics SelectServer::metrics() const {
    std::lock_guard<std::mutex> lk(mu_);
    return metrics_;
}

std::vector<simt::TraceCounter> SelectServer::trace_counters() const {
    std::lock_guard<std::mutex> lk(mu_);
    return trace_counters_;
}

std::vector<simt::TraceInstant> SelectServer::trace_instants() const {
    std::vector<simt::TraceInstant> out;
    {
        std::lock_guard<std::mutex> lk(mu_);
        out = trace_instants_;
    }
    // Collect-mode StreamSan hazards ride along as their own annotation
    // track (kStreamSanTrack, above the supervisor tracks), so a
    // GPUSEL_STREAMSAN=2 load run renders ordering hazards inline with the
    // admission/breaker timeline (docs/streamsan.md).
    if (const simt::StreamSan* ssan = dev_.stream_sanitizer();
        ssan != nullptr && ssan->mode() == simt::StreamSanMode::collect) {
        const std::vector<simt::TraceInstant>& hz = ssan->trace_instants();
        out.insert(out.end(), hz.begin(), hz.end());
    }
    return out;
}

}  // namespace gpusel::server
