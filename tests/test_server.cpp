// Selection-as-a-service tests (docs/service.md): correctness of every
// request kind against the CPU reference, admission control (bounded-queue
// shedding, per-tenant fairness, up-front deadline rejection), graceful
// degradation under queue delay, the per-backend circuit breaker's
// trip / half-open / recovery cycle, clean drain and shutdown semantics,
// concurrent submission against the dispatcher thread, and a seeded
// overload + fault soak in which every admitted request must resolve --
// the service never hangs a future.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <future>
#include <thread>
#include <vector>

#include "core/shard_select.hpp"
#include "data/distributions.hpp"
#include "server/loadgen.hpp"
#include "server/service.hpp"
#include "simt/arch.hpp"
#include "simt/device.hpp"
#include "simt/fault.hpp"
#include "simt/topology.hpp"
#include "stats/order_stats.hpp"

namespace {

using namespace gpusel;
using server::Request;
using server::RequestKind;
using server::Response;
using server::ResponseMode;
using server::SelectServer;
using server::ServerConfig;

std::vector<float> dataset(std::size_t n, std::uint64_t seed,
                           data::Distribution dist = data::Distribution::uniform_real) {
    return data::generate<float>({n, dist, 0, seed});
}

// ---- correctness against the CPU reference ----------------------------------

TEST(Server, SelectMatchesReference) {
    simt::Device dev(simt::arch_v100());
    SelectServer srv(dev, {});
    const auto data = dataset(65536, 1);
    for (const std::size_t rank : {std::size_t{0}, std::size_t{12345}, std::size_t{65535}}) {
        Request req;
        req.data = data;
        req.rank = rank;
        auto fut = srv.submit(req);
        ASSERT_TRUE(srv.pump());
        const Response r = fut.get();
        ASSERT_TRUE(r.status.ok()) << r.status.message;
        EXPECT_EQ(r.mode, ResponseMode::exact);
        EXPECT_EQ(stats::rank_error<float>(data, r.value, rank), 0u);
        EXPECT_GE(r.finish_ns, r.start_ns);
        EXPECT_GE(r.start_ns, r.arrival_ns);
    }
}

TEST(Server, TopKMatchesReference) {
    simt::Device dev(simt::arch_v100());
    SelectServer srv(dev, {});
    const auto data = dataset(32768, 2);
    Request req;
    req.kind = RequestKind::topk;
    req.data = data;
    req.k = 100;
    auto fut = srv.submit(req);
    ASSERT_TRUE(srv.pump());
    const Response r = fut.get();
    ASSERT_TRUE(r.status.ok()) << r.status.message;
    ASSERT_EQ(r.values.size(), 100u);
    std::vector<float> expect = data;
    std::nth_element(expect.begin(), expect.begin() + 99, expect.end(), std::greater<>());
    EXPECT_EQ(r.value, expect[99]);  // threshold = 100th largest
    std::vector<float> got = r.values;
    std::sort(got.begin(), got.end(), std::greater<>());
    expect.resize(100);
    std::sort(expect.begin(), expect.end(), std::greater<>());
    EXPECT_EQ(got, expect);
}

TEST(Server, ArgselectReturnsKeyAndIndex) {
    simt::Device dev(simt::arch_v100());
    SelectServer srv(dev, {});
    const auto data = dataset(16384, 3);
    Request req;
    req.kind = RequestKind::argselect;
    req.data = data;
    req.rank = 4321;
    auto fut = srv.submit(req);
    ASSERT_TRUE(srv.pump());
    const Response r = fut.get();
    ASSERT_TRUE(r.status.ok()) << r.status.message;
    EXPECT_EQ(stats::rank_error<float>(data, r.value, 4321), 0u);
    ASSERT_LT(r.index, data.size());
    EXPECT_EQ(data[r.index], r.value);
}

TEST(Server, QuantileMapsToRank) {
    simt::Device dev(simt::arch_v100());
    SelectServer srv(dev, {});
    const auto data = dataset(10000, 4);
    Request req;
    req.kind = RequestKind::quantile;
    req.data = data;
    req.q = 0.9;
    auto fut = srv.submit(req);
    ASSERT_TRUE(srv.pump());
    const Response r = fut.get();
    ASSERT_TRUE(r.status.ok()) << r.status.message;
    const std::size_t rank = core::try_quantile_rank(data.size(), 0.9,
                                                     core::QuantileMethod::nearest)
                                 .value();
    EXPECT_EQ(stats::rank_error<float>(data, r.value, rank), 0u);
}

TEST(Server, ApproxRequestReportsBoundedRankError) {
    simt::Device dev(simt::arch_v100());
    SelectServer srv(dev, {});
    const auto data = dataset(65536, 5);
    Request req;
    req.data = data;
    req.rank = 30000;
    req.approx = true;
    auto fut = srv.submit(req);
    ASSERT_TRUE(srv.pump());
    const Response r = fut.get();
    ASSERT_TRUE(r.status.ok()) << r.status.message;
    EXPECT_EQ(r.mode, ResponseMode::approx);
    EXPECT_EQ(stats::rank_error<float>(data, r.value, 30000), r.rank_error);
    EXPECT_LE(r.rank_error, r.rank_error_bound);
}

TEST(Server, BatchCoalescesMultipleTenants) {
    simt::Device dev(simt::arch_v100());
    ServerConfig cfg;
    cfg.max_batch = 8;
    SelectServer srv(dev, cfg);
    const auto data = dataset(16384, 6);
    std::vector<std::future<Response>> futs;
    for (int t = 0; t < 6; ++t) {
        Request req;
        req.data = data;
        req.rank = static_cast<std::size_t>(1000 * (t + 1));
        req.tenant = t;
        futs.push_back(srv.submit(req));
    }
    ASSERT_TRUE(srv.pump());  // one round serves all six
    EXPECT_EQ(srv.queue_depth(), 0u);
    for (int t = 0; t < 6; ++t) {
        const Response r = futs[static_cast<std::size_t>(t)].get();
        ASSERT_TRUE(r.status.ok()) << r.status.message;
        EXPECT_EQ(stats::rank_error<float>(data, r.value,
                                           static_cast<std::size_t>(1000 * (t + 1))),
                  0u);
    }
}

// Oversized requests peel off to the configured multi-device shard group
// (docs/sharding.md) and stay exact; requests under the threshold keep the
// single-device batch path.  Argselect never routes (key-only shard layer).
TEST(Server, OversizedRequestsRouteToShardGroup) {
    simt::Device dev(simt::arch_v100());
    simt::TopologySpec spec;
    spec.num_devices = 2;
    spec.arch = simt::arch_v100();
    spec.mem_capacity_bytes = 64 * 1024;  // tiny modeled HBM -> real sharding
    simt::DeviceGroup group(spec);
    ServerConfig cfg;
    cfg.shard_group = &group;
    cfg.shard_threshold_elems = 8192;
    SelectServer srv(dev, cfg);
    const auto big = dataset(40000, 21);

    Request req;  // oversized exact select
    req.data = big;
    req.rank = 12345;
    auto fut = srv.submit(req);
    ASSERT_TRUE(srv.pump());
    Response r = fut.get();
    ASSERT_TRUE(r.status.ok()) << r.status.message;
    EXPECT_EQ(r.mode, ResponseMode::exact);
    EXPECT_EQ(stats::rank_error<float>(big, r.value, 12345), 0u);
    EXPECT_EQ(srv.metrics().sharded, 1u);
    EXPECT_GT(group.total_link_bytes(), 0u);

    Request tk;  // oversized top-k
    tk.kind = RequestKind::topk;
    tk.data = big;
    tk.k = 33;
    fut = srv.submit(tk);
    ASSERT_TRUE(srv.pump());
    r = fut.get();
    ASSERT_TRUE(r.status.ok()) << r.status.message;
    ASSERT_EQ(r.values.size(), 33u);
    std::vector<float> expect = big;
    std::nth_element(expect.begin(), expect.begin() + 32, expect.end(), std::greater<>());
    EXPECT_EQ(r.value, expect[32]);
    EXPECT_EQ(srv.metrics().sharded, 2u);

    Request ap;  // oversized approx select: bounded error, still sharded
    ap.data = big;
    ap.rank = 100;
    ap.approx = true;
    fut = srv.submit(ap);
    ASSERT_TRUE(srv.pump());
    r = fut.get();
    ASSERT_TRUE(r.status.ok()) << r.status.message;
    EXPECT_EQ(r.mode, ResponseMode::approx);
    EXPECT_LE(stats::rank_error<float>(big, r.value, 100), r.rank_error_bound);
    EXPECT_EQ(srv.metrics().sharded, 3u);

    Request sm;  // under the threshold: single-device batch path
    const auto small = dataset(1024, 22);
    sm.data = small;
    sm.rank = 77;
    fut = srv.submit(sm);
    ASSERT_TRUE(srv.pump());
    r = fut.get();
    ASSERT_TRUE(r.status.ok()) << r.status.message;
    EXPECT_EQ(stats::rank_error<float>(sm.data, r.value, 77), 0u);
    EXPECT_EQ(srv.metrics().sharded, 3u);
}

// A request's deadline is on the server device's clock; the shard group's
// devices run on their own, unrelated clocks.  A routed request must get
// the budget it has left, not the server's absolute deadline.
TEST(Server, ShardedDeadlineFollowsGroupClock) {
    simt::TopologySpec spec;
    spec.num_devices = 2;
    spec.arch = simt::arch_v100();
    spec.mem_capacity_bytes = 64 * 1024;
    const auto big = dataset(40000, 23);
    auto request = [&](double arrival_ns, double deadline_ns) {
        Request req;
        req.data = big;
        req.rank = 20000;
        req.arrival_ns = arrival_ns;
        req.deadline_ns = deadline_ns;
        return req;
    };
    // Pumps the requests through one round on a fresh server device.
    auto serve = [&](simt::DeviceGroup* group, const std::vector<Request>& reqs) {
        simt::Device dev(simt::arch_v100());
        ServerConfig cfg;
        cfg.admit_deadline_check = false;
        cfg.select.base_case_size = 64;
        cfg.shard_group = group;
        cfg.shard_threshold_elems = 8192;
        SelectServer srv(dev, cfg);
        std::vector<std::future<Response>> futs;
        for (const Request& r : reqs) futs.push_back(srv.submit(r));
        EXPECT_TRUE(srv.pump());
        std::vector<Response> out;
        for (auto& f : futs) out.push_back(f.get());
        return out;
    };

    // (a) At server time 1 s, a 1 us budget cannot fit a multi-level
    // descent, routed or not.
    simt::DeviceGroup fresh(spec);
    EXPECT_EQ(serve(&fresh, {request(1e9, 1e3)})[0].status.code,
              core::SelectError::deadline_exceeded);
    EXPECT_EQ(serve(nullptr, {request(1e9, 1e3)})[0].status.code,
              core::SelectError::deadline_exceeded);

    // (b) A group whose clock ran far ahead of a fresh server still gives
    // a 20 ms budget the ~1.3 ms one sharded select needs.
    simt::DeviceGroup busy(spec);
    while (busy.elapsed_ns() < 40e6) {
        ASSERT_TRUE(core::try_sharded_select<float>(busy, big, 100, {}).ok());
    }
    const Response ok = serve(&busy, {request(0.0, 20e6)})[0];
    ASSERT_TRUE(ok.status.ok()) << ok.status.message;
    EXPECT_EQ(stats::rank_error<float>(big, ok.value, 20000), 0u);

    // A request whose budget the round's earlier sharded work used up
    // resolves without running on the group.
    simt::DeviceGroup one(spec);
    ASSERT_TRUE(serve(&one, {request(0.0, 0.0)})[0].status.ok());
    simt::DeviceGroup two(spec);
    const auto both = serve(&two, {request(0.0, 0.0), request(0.0, 100.0)});
    EXPECT_TRUE(both[0].status.ok());
    EXPECT_EQ(both[1].status.code, core::SelectError::deadline_exceeded);
    EXPECT_EQ(two.device(0).launch_count(), one.device(0).launch_count());
    EXPECT_EQ(two.total_link_bytes(), one.total_link_bytes());
}

// ---- typed rejections --------------------------------------------------------

TEST(Server, InvalidRequestsRejectTyped) {
    simt::Device dev(simt::arch_v100());
    SelectServer srv(dev, {});
    const auto data = dataset(1024, 7);

    Request empty;
    EXPECT_EQ(srv.submit(empty).get().status.code, core::SelectError::empty_input);

    Request bad_rank;
    bad_rank.data = data;
    bad_rank.rank = 1024;
    EXPECT_EQ(srv.submit(bad_rank).get().status.code, core::SelectError::rank_out_of_range);

    Request bad_k;
    bad_k.kind = RequestKind::topk;
    bad_k.data = data;
    bad_k.k = 0;
    EXPECT_EQ(srv.submit(bad_k).get().status.code, core::SelectError::rank_out_of_range);

    Request bad_q;
    bad_q.kind = RequestKind::quantile;
    bad_q.data = data;
    bad_q.q = 1.5;
    EXPECT_FALSE(srv.submit(bad_q).get().status.ok());

    Request approx_topk;
    approx_topk.kind = RequestKind::topk;
    approx_topk.data = data;
    approx_topk.k = 10;
    approx_topk.approx = true;
    EXPECT_EQ(srv.submit(approx_topk).get().status.code,
              core::SelectError::invalid_argument);

    // Rejections resolve immediately: nothing reached the queue.
    EXPECT_EQ(srv.queue_depth(), 0u);
}

TEST(Server, ShedsWhenGlobalQueueFull) {
    simt::Device dev(simt::arch_v100());
    ServerConfig cfg;
    cfg.queue_capacity = 4;
    cfg.tenant_queue_capacity = 4;
    SelectServer srv(dev, cfg);
    const auto data = dataset(4096, 8);
    std::vector<std::future<Response>> futs;
    for (int i = 0; i < 8; ++i) {
        Request req;
        req.data = data;
        req.rank = 100;
        req.tenant = i;  // spread tenants so the global bound is what trips
        futs.push_back(srv.submit(req));
    }
    int shed = 0;
    while (srv.pump()) {
    }
    for (auto& f : futs) {
        const Response r = f.get();
        if (!r.status.ok()) {
            EXPECT_EQ(r.status.code, core::SelectError::overloaded);
            ++shed;
        }
    }
    EXPECT_EQ(shed, 4);
    EXPECT_EQ(srv.metrics().shed, 4u);
}

TEST(Server, TenantQueueBoundsIsolateTenants) {
    simt::Device dev(simt::arch_v100());
    ServerConfig cfg;
    cfg.queue_capacity = 64;
    cfg.tenant_queue_capacity = 2;
    SelectServer srv(dev, cfg);
    const auto data = dataset(4096, 9);
    // Tenant 0 floods; its overflow sheds without consuming global slots.
    std::vector<std::future<Response>> flood;
    for (int i = 0; i < 6; ++i) {
        Request req;
        req.data = data;
        req.rank = 1;
        req.tenant = 0;
        flood.push_back(srv.submit(req));
    }
    // Tenant 1 still gets in.
    Request other;
    other.data = data;
    other.rank = 2;
    other.tenant = 1;
    auto ok_fut = srv.submit(other);
    while (srv.pump()) {
    }
    int shed = 0;
    for (auto& f : flood) {
        if (!f.get().status.ok()) ++shed;
    }
    EXPECT_EQ(shed, 4);  // 6 offered, 2 per-tenant slots
    EXPECT_TRUE(ok_fut.get().status.ok());
}

TEST(Server, FairPickupAlternatesTenants) {
    simt::Device dev(simt::arch_v100());
    ServerConfig cfg;
    cfg.max_batch = 2;  // one round cannot serve everything
    SelectServer srv(dev, cfg);
    const auto data = dataset(4096, 10);
    // Tenant 0 queues three requests, tenant 1 queues one; the first round
    // must include tenant 1 (round-robin), not three of tenant 0.
    std::vector<std::future<Response>> t0;
    for (int i = 0; i < 3; ++i) {
        Request req;
        req.data = data;
        req.rank = 10;
        req.tenant = 0;
        t0.push_back(srv.submit(req));
    }
    Request r1;
    r1.data = data;
    r1.rank = 20;
    r1.tenant = 1;
    auto f1 = srv.submit(r1);
    ASSERT_TRUE(srv.pump());
    // After one round of max_batch=2, tenant 1 must already be resolved.
    EXPECT_EQ(f1.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_TRUE(f1.get().status.ok());
    while (srv.pump()) {
    }
    for (auto& f : t0) EXPECT_TRUE(f.get().status.ok());
}

// ---- deadlines ---------------------------------------------------------------

TEST(Server, InfeasibleDeadlineRejectedUpFront) {
    simt::Device dev(simt::arch_v100());
    SelectServer srv(dev, {});
    const auto data = dataset(65536, 11);
    Request req;
    req.data = data;
    req.rank = 100;
    req.deadline_ns = 1.0;  // nothing finishes in 1 simulated ns
    auto fut = srv.submit(req);
    const Response r = fut.get();  // resolved at admission, no pump needed
    EXPECT_EQ(r.status.code, core::SelectError::deadline_exceeded);
    EXPECT_EQ(srv.metrics().deadline_rejected, 1u);
    EXPECT_EQ(srv.queue_depth(), 0u);
}

TEST(Server, GenerousDeadlineAdmitsAndCompletes) {
    simt::Device dev(simt::arch_v100());
    SelectServer srv(dev, {});
    const auto data = dataset(65536, 12);
    Request req;
    req.data = data;
    req.rank = 100;
    req.deadline_ns = 1e9;
    auto fut = srv.submit(req);
    ASSERT_TRUE(srv.pump());
    const Response r = fut.get();
    ASSERT_TRUE(r.status.ok()) << r.status.message;
    EXPECT_LE(r.latency_ns(), 1e9);
}

TEST(Server, DeadlineExpiredInQueueResolvesTyped) {
    simt::Device dev(simt::arch_v100());
    ServerConfig cfg;
    cfg.admit_deadline_check = false;  // let it through; pickup must catch it
    cfg.max_batch = 1;
    SelectServer srv(dev, cfg);
    const auto data = dataset(65536, 13);
    // First request occupies the device long enough that the second's tiny
    // deadline expires while it waits in the queue.
    Request first;
    first.data = data;
    first.rank = 1;
    auto f0 = srv.submit(first);
    Request second;
    second.data = data;
    second.rank = 2;
    second.deadline_ns = 10.0;
    auto f1 = srv.submit(second);
    while (srv.pump()) {
    }
    EXPECT_TRUE(f0.get().status.ok());
    EXPECT_EQ(f1.get().status.code, core::SelectError::deadline_exceeded);
}

// ---- graceful degradation ----------------------------------------------------

TEST(Server, DegradesUnderQueueDelay) {
    simt::Device dev(simt::arch_v100());
    ServerConfig cfg;
    cfg.max_batch = 1;
    cfg.degrade_queue_delay_ns = 1000.0;  // tiny threshold: second round trips it
    SelectServer srv(dev, cfg);
    const auto data = dataset(65536, 14);
    Request first;
    first.data = data;
    first.rank = 1000;
    auto f0 = srv.submit(first);
    Request second;
    second.data = data;
    second.rank = 30000;
    auto f1 = srv.submit(second);
    while (srv.pump()) {
    }
    EXPECT_TRUE(f0.get().status.ok());
    const Response r1 = f1.get();
    ASSERT_TRUE(r1.status.ok()) << r1.status.message;
    EXPECT_EQ(r1.mode, ResponseMode::degraded);
    EXPECT_EQ(stats::rank_error<float>(data, r1.value, 30000), r1.rank_error);
    EXPECT_LE(r1.rank_error, r1.rank_error_bound);
    EXPECT_EQ(srv.metrics().degraded, 1u);
}

TEST(Server, AllowDegradeFalseStaysExact) {
    simt::Device dev(simt::arch_v100());
    ServerConfig cfg;
    cfg.max_batch = 1;
    cfg.degrade_queue_delay_ns = 1000.0;
    SelectServer srv(dev, cfg);
    const auto data = dataset(65536, 15);
    Request first;
    first.data = data;
    first.rank = 1;
    auto f0 = srv.submit(first);
    Request second;
    second.data = data;
    second.rank = 30000;
    second.allow_degrade = false;
    auto f1 = srv.submit(second);
    while (srv.pump()) {
    }
    EXPECT_TRUE(f0.get().status.ok());
    const Response r1 = f1.get();
    ASSERT_TRUE(r1.status.ok()) << r1.status.message;
    EXPECT_EQ(r1.mode, ResponseMode::exact);
    EXPECT_EQ(stats::rank_error<float>(data, r1.value, 30000), 0u);
}

// ---- circuit breaker ---------------------------------------------------------

TEST(Server, BreakerTripsQuarantinesAndRecovers) {
    simt::Device dev(simt::arch_v100());
    ServerConfig cfg;
    cfg.breaker.failure_threshold = 2;
    cfg.breaker.initial_backoff_ns = 1e4;
    SelectServer srv(dev, cfg);
    const auto data = dataset(8192, 16);

    // Hard launch faults: every round fails terminally until cleared.
    simt::FaultSpec faults;
    faults.seed = 99;
    faults.launch_rate = 1.0;
    faults.launch_burst = 64;
    dev.set_faults(faults);
    for (int i = 0; i < 2; ++i) {
        Request req;
        req.data = data;
        req.rank = 50;
        auto fut = srv.submit(req);
        srv.pump();
        EXPECT_FALSE(fut.get().status.ok());
    }
    const std::uint32_t tripped = dev.backend_quarantine();
    EXPECT_NE(tripped, 0u) << "two consecutive faulted rounds must trip a breaker";

    // Faults stop; the next rounds (after the backoff window) half-open
    // probe and recover -- the quarantine mask must clear again.
    dev.clear_faults();
    // A few fault-free rounds: first the backoff window expires (open ->
    // half_open, quarantine bit clears), then the planner's next pick of
    // the backend is the half-open probe whose success closes it.
    for (int i = 0; i < 8; ++i) {
        Request req;
        req.data = data;
        req.rank = 60;
        auto fut = srv.submit(req);
        srv.pump();
        const Response r = fut.get();
        EXPECT_TRUE(r.status.ok()) << r.status.message;
    }
    EXPECT_EQ(dev.backend_quarantine(), 0u) << "breaker must recover after faults stop";
    for (const core::BackendKind k : core::kBackends) {
        if ((tripped & core::backend_bit(k)) != 0u) {
            EXPECT_EQ(srv.breakers().of(k).state(), server::BreakerState::closed)
                << "tripped breaker must close after a successful probe";
        }
    }
}

// ---- drain / shutdown --------------------------------------------------------

TEST(Server, DrainCompletesAdmittedAndShedsNew) {
    simt::Device dev(simt::arch_v100());
    SelectServer srv(dev, {});
    const auto data = dataset(8192, 17);
    std::vector<std::future<Response>> futs;
    for (int i = 0; i < 5; ++i) {
        Request req;
        req.data = data;
        req.rank = static_cast<std::size_t>(i);
        futs.push_back(srv.submit(req));
    }
    srv.drain();
    EXPECT_EQ(srv.queue_depth(), 0u);
    for (auto& f : futs) EXPECT_TRUE(f.get().status.ok());
    // Draining: new submissions shed immediately.
    Request late;
    late.data = data;
    late.rank = 1;
    EXPECT_EQ(srv.submit(late).get().status.code, core::SelectError::overloaded);
    // reopen() restores admission.
    srv.reopen();
    Request again;
    again.data = data;
    again.rank = 1;
    auto f = srv.submit(again);
    ASSERT_TRUE(srv.pump());
    EXPECT_TRUE(f.get().status.ok());
}

TEST(Server, DestructorResolvesQueuedFutures) {
    simt::Device dev(simt::arch_v100());
    const auto data = dataset(8192, 18);
    std::vector<std::future<Response>> futs;
    {
        SelectServer srv(dev, {});
        for (int i = 0; i < 3; ++i) {
            Request req;
            req.data = data;
            req.rank = 7;
            futs.push_back(srv.submit(req));
        }
        // No pump: the destructor must still resolve every future.
    }
    for (auto& f : futs) {
        const Response r = f.get();
        EXPECT_EQ(r.status.code, core::SelectError::overloaded);
    }
}

TEST(Server, PumpUntilHonorsLimit) {
    simt::Device dev(simt::arch_v100());
    SelectServer srv(dev, {});
    const auto data = dataset(8192, 19);
    Request req;
    req.data = data;
    req.rank = 5;
    req.arrival_ns = 1e6;
    auto fut = srv.submit(req);
    // The round would start at the arrival (1e6); an earlier limit must
    // refuse to run it.
    EXPECT_FALSE(srv.pump_until(0.5e6));
    EXPECT_EQ(srv.queue_depth(), 1u);
    EXPECT_TRUE(srv.pump_until(2e6));
    EXPECT_TRUE(fut.get().status.ok());
}

// ---- dispatcher thread -------------------------------------------------------

TEST(Server, ConcurrentSubmitAgainstDispatcher) {
    simt::Device dev(simt::arch_v100());
    ServerConfig cfg;
    cfg.queue_capacity = 1024;
    cfg.tenant_queue_capacity = 256;
    SelectServer srv(dev, cfg);
    const auto data = dataset(16384, 20);
    srv.start();
    constexpr int kThreads = 4;
    constexpr int kPerThread = 25;
    std::vector<std::vector<std::future<Response>>> futs(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                Request req;
                req.data = data;
                req.rank = static_cast<std::size_t>(t * 1000 + i);
                req.tenant = t;
                futs[static_cast<std::size_t>(t)].push_back(srv.submit(req));
            }
        });
    }
    for (auto& th : threads) th.join();
    srv.stop();  // drains the queue before returning
    std::size_t completed = 0;
    for (auto& per_thread : futs) {
        for (auto& f : per_thread) {
            const Response r = f.get();
            ASSERT_TRUE(r.status.ok()) << r.status.message;
            ++completed;
        }
    }
    EXPECT_EQ(completed, static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_EQ(srv.metrics().completed, completed);
}

// ---- loadgen -----------------------------------------------------------------

TEST(Server, LoadgenNominalCompletesEverything) {
    simt::Device dev(simt::arch_v100());
    server::LoadgenConfig lcfg;
    lcfg.rate_rps = 500.0;
    lcfg.requests = 60;
    lcfg.n = 8192;
    const server::LoadgenResult r = server::run_loadgen(dev, {}, lcfg);
    EXPECT_EQ(r.completed, r.offered);
    EXPECT_EQ(r.shed, 0u);
    EXPECT_GT(r.p50_ns, 0.0);
    EXPECT_GE(r.p99_ns, r.p50_ns);
    EXPECT_GE(r.p999_ns, r.p99_ns);
}

TEST(Server, LoadgenOverloadShedsNotHangs) {
    simt::Device dev(simt::arch_v100());
    ServerConfig scfg;
    scfg.queue_capacity = 8;
    scfg.tenant_queue_capacity = 4;
    server::LoadgenConfig lcfg;
    lcfg.rate_rps = 1e6;  // far past capacity
    lcfg.requests = 120;
    lcfg.n = 16384;
    const server::LoadgenResult r = server::run_loadgen(dev, scfg, lcfg);
    EXPECT_GT(r.shed, 0u) << "overload must shed, not queue unboundedly";
    EXPECT_EQ(r.offered, r.completed + r.shed + r.deadline_rejected + r.deadline_aborted +
                             r.failed);
}

// ---- seeded overload + fault soak -------------------------------------------
// Scenario grid: (request mix x fault schedule x overload burst) as a
// deterministic function of the scenario index.  Every admitted request
// must resolve (result or typed error), drain must finish the in-flight
// work, and after the faults stop the breakers must recover.

std::size_t soak_scenarios() {
    if (const char* env = std::getenv("GPUSEL_SOAK_SCENARIOS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v > 0) return static_cast<std::size_t>(v);
    }
    return 1000;
}

TEST(ServerSoak, EveryAdmittedRequestResolves) {
    const std::size_t scenarios = soak_scenarios();
    const auto base = dataset(4096, 21);
    const auto skewed = dataset(4096, 22, data::Distribution::adversarial_cluster);
    std::uint64_t resolved = 0, completed = 0, typed_errors = 0;

    for (std::size_t s = 0; s < scenarios; ++s) {
        simt::Device dev(simt::arch_v100());
        ServerConfig cfg;
        cfg.queue_capacity = 4 + s % 13;
        cfg.tenant_queue_capacity = 2 + s % 5;
        cfg.max_batch = 1 + s % 7;
        cfg.degrade_queue_delay_ns = (s % 3 == 0) ? 5e3 : 0.0;
        cfg.default_deadline_ns = (s % 4 == 0) ? 5e5 : 0.0;
        cfg.breaker.failure_threshold = 2;
        cfg.breaker.initial_backoff_ns = 1e4;
        SelectServer srv(dev, cfg);

        // Scenario fault schedule: off / alloc / launch / both, bursty.
        simt::FaultSpec faults;
        faults.seed = 31 * s + 7;
        switch (s % 4) {
            case 1: faults.alloc_rate = 0.05; break;
            case 2: faults.launch_rate = 0.05; break;
            case 3:
                faults.alloc_rate = 0.03;
                faults.launch_rate = 0.03;
                faults.alloc_burst = 3;
                break;
            default: break;
        }
        if (faults.any()) dev.set_faults(faults);

        // Overload burst: a clump of arrivals at the same instant, mixed
        // kinds and tenants, some with deadlines.
        const std::size_t burst = 3 + s % 9;
        std::vector<std::future<Response>> futs;
        futs.reserve(burst);
        for (std::size_t i = 0; i < burst; ++i) {
            Request req;
            req.data = (s + i) % 3 == 0 ? std::span<const float>(skewed)
                                        : std::span<const float>(base);
            req.tenant = static_cast<int>(i % 3);
            req.rank = (97 * (s + i)) % 4096;
            switch ((s + i) % 5) {
                case 0: req.kind = RequestKind::topk; req.k = 1 + req.rank % 32; break;
                case 1: req.kind = RequestKind::argselect; break;
                case 2:
                    req.kind = RequestKind::quantile;
                    req.q = static_cast<double>(req.rank) / 4096.0;
                    break;
                case 3: req.approx = true; break;
                default: break;
            }
            if ((s + i) % 6 == 0) req.deadline_ns = 2e5;
            futs.push_back(srv.submit(req));
            if (i % 2 == 1) srv.pump();  // interleave rounds with arrivals
        }

        // Faults stop; drain must finish every in-flight request and the
        // breakers must be recoverable.
        dev.clear_faults();
        srv.drain();
        ASSERT_EQ(srv.queue_depth(), 0u) << "scenario " << s;
        for (auto& f : futs) {
            ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
                << "hung request in scenario " << s;
            const Response r = f.get();
            ++resolved;
            if (r.status.ok()) {
                ++completed;
            } else {
                ++typed_errors;
                EXPECT_FALSE(r.status.message.empty()) << "scenario " << s;
            }
        }

        // Breaker recovery: pump fault-free work until the quarantine mask
        // clears (bounded by the backoff ladder).
        if (dev.backend_quarantine() != 0u) {
            srv.reopen();
            for (int probe = 0; probe < 16 && dev.backend_quarantine() != 0u; ++probe) {
                Request req;
                req.data = base;
                req.rank = 64;
                auto f = srv.submit(req);
                srv.pump();
                f.get();
            }
            EXPECT_EQ(dev.backend_quarantine(), 0u)
                << "breaker failed to recover in scenario " << s;
        }
    }
    // Sanity on the grid itself: work actually ran and faults actually bit.
    EXPECT_GT(completed, 0u);
    EXPECT_GT(typed_errors, 0u);
    EXPECT_EQ(resolved, completed + typed_errors);
    RecordProperty("scenarios", static_cast<int>(scenarios));
    RecordProperty("resolved", static_cast<int>(resolved));
}

}  // namespace
