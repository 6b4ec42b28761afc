// Tests for the chunked work-stealing ThreadPool: exactly-once index
// coverage under stealing, inline execution with zero workers, exception
// propagation, and reuse across many tasks; plus the GPUSEL_WORKERS parse
// behind default_host_workers().

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "simt/device.hpp"
#include "simt/function_ref.hpp"
#include "simt/thread_pool.hpp"

namespace {

using gpusel::simt::ThreadPool;
using gpusel::simt::function_ref;

void expect_exactly_once(ThreadPool& pool, std::size_t count) {
    std::vector<std::atomic<int>> hits(count);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    pool.parallel_for(count, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1) << "index " << i;
    }
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
    for (const unsigned workers : {0u, 1u, 3u, 8u}) {
        ThreadPool pool(workers);
        EXPECT_EQ(pool.worker_count(), workers);
        for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                        std::size_t{160}, std::size_t{10000}}) {
            expect_exactly_once(pool, count);
        }
    }
}

TEST(ThreadPool, InlineWithZeroWorkersRunsOnCaller) {
    ThreadPool pool(0);
    const auto caller = std::this_thread::get_id();
    std::size_t ran = 0;
    pool.parallel_for(64, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++ran;  // safe: inline execution is single-threaded
    });
    EXPECT_EQ(ran, 64u);
}

TEST(ThreadPool, UnevenWorkStillCompletes) {
    // Skewed per-index cost exercises the steal path: the first indices
    // are orders of magnitude slower than the tail.
    ThreadPool pool(4);
    std::atomic<std::size_t> done{0};
    pool.parallel_for(256, [&](std::size_t i) {
        if (i < 4) std::this_thread::sleep_for(std::chrono::milliseconds(5));
        done.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(done.load(), 256u);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
    for (const unsigned workers : {0u, 3u}) {
        ThreadPool pool(workers);
        EXPECT_THROW(
            pool.parallel_for(100,
                              [&](std::size_t i) {
                                  if (i == 37) throw std::runtime_error("boom");
                              }),
            std::runtime_error);
        // The pool must remain fully usable after a failed task.
        expect_exactly_once(pool, 500);
    }
}

TEST(ThreadPool, ReusableAcrossManyTasks) {
    ThreadPool pool(3);
    std::atomic<std::size_t> total{0};
    for (int rep = 0; rep < 200; ++rep) {
        pool.parallel_for(64, [&](std::size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        });
    }
    EXPECT_EQ(total.load(), 64u * 200u);
}

TEST(ThreadPool, FunctionRefInvokesCallable) {
    // function_ref is the non-allocating callable the pool traffics in;
    // check it forwards arguments and return values faithfully.
    int calls = 0;
    auto lambda = [&](std::size_t i) { calls += static_cast<int>(i); };
    function_ref<void(std::size_t)> ref(lambda);
    ref(2);
    ref(3);
    EXPECT_EQ(calls, 5);
}

TEST(ThreadPool, LargeCountNearChunkBoundaries) {
    ThreadPool pool(2);
    // Counts straddling participant-partition boundaries (participants = 3).
    for (const std::size_t count : {std::size_t{2}, std::size_t{3}, std::size_t{4},
                                    std::size_t{3 * 1024 - 1}, std::size_t{3 * 1024 + 1}}) {
        expect_exactly_once(pool, count);
    }
}

/// Env-var guard: restores GPUSEL_WORKERS (or its absence) on scope exit.
class WorkersEnv {
public:
    WorkersEnv() {
        if (const char* old = std::getenv("GPUSEL_WORKERS")) saved_ = old;
    }
    ~WorkersEnv() {
        if (saved_) {
            ::setenv("GPUSEL_WORKERS", saved_->c_str(), 1);
        } else {
            ::unsetenv("GPUSEL_WORKERS");
        }
    }
    void set(const char* value) { ::setenv("GPUSEL_WORKERS", value, 1); }

private:
    std::optional<std::string> saved_;
};

TEST(HostWorkers, MalformedValueUsesHardwareDefault) {
    const unsigned hc = std::thread::hardware_concurrency();
    if (hc <= 1) GTEST_SKIP() << "the hardware default is 0 here, like a misparse";
    const unsigned hw_default = hc - 1;
    WorkersEnv env;
    for (const char* bad : {"", "abc", "0x", "3x", "-1", "2000"}) {
        env.set(bad);
        EXPECT_EQ(gpusel::simt::default_host_workers(), hw_default)
            << "GPUSEL_WORKERS=\"" << bad << "\"";
    }
    for (const unsigned good : {0u, 2u, 1024u}) {
        env.set(std::to_string(good).c_str());
        EXPECT_EQ(gpusel::simt::default_host_workers(), good) << "GPUSEL_WORKERS=" << good;
    }
}

}  // namespace
