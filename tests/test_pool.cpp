// Unit tests for the stream-aware device-memory arena (simt/pool.hpp):
// size-class rounding, free-list reuse, cross-stream gating, tracker
// integration, and the warm-pool allocation-count collapse the pipeline
// layer relies on.

#include "simt/pool.hpp"

#include <gtest/gtest.h>

#include "core/sample_select.hpp"
#include "data/distributions.hpp"
#include "simt/device.hpp"

namespace {

using namespace gpusel;

TEST(MemoryPool, RoundsUpToPowerOfTwoClasses) {
    simt::AllocationTracker tracker;
    simt::MemoryPool pool(tracker);
    auto* a = pool.acquire(100, 0);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->capacity, 128u);
    EXPECT_EQ(a->charged, 100u);
    auto* b = pool.acquire(1, 0);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->capacity, simt::MemoryPool::kMinBlockBytes);
    pool.release(a, 0);
    pool.release(b, 0);
}

TEST(MemoryPool, ZeroByteRequestReturnsNull) {
    simt::AllocationTracker tracker;
    simt::MemoryPool pool(tracker);
    EXPECT_EQ(pool.acquire(0, 0), nullptr);
}

TEST(MemoryPool, SameStreamReleaseThenAcquireReusesBlock) {
    simt::AllocationTracker tracker;
    simt::MemoryPool pool(tracker);
    auto* a = pool.acquire(1024, 0);
    pool.release(a, 0);
    auto* b = pool.acquire(1000, 0);
    EXPECT_EQ(a, b);  // same backing block, exact class match
    const auto s = pool.stats();
    EXPECT_EQ(s.fresh, 1u);
    EXPECT_EQ(s.hits, 1u);
    pool.release(b, 0);
}

TEST(MemoryPool, TrackerChargesRequestedBytesNotCapacity) {
    simt::AllocationTracker tracker;
    simt::MemoryPool pool(tracker);
    tracker.set_baseline();
    auto* a = pool.acquire(100, 0);  // capacity rounds to 128
    EXPECT_EQ(tracker.peak_above_baseline(), 100u);
    pool.release(a, 0);
    EXPECT_EQ(tracker.current(), tracker.baseline());
    // A pool hit still counts toward peak but not toward alloc_count.
    const auto allocs_before = tracker.alloc_count();
    auto* b = pool.acquire(90, 0);
    EXPECT_EQ(tracker.alloc_count(), allocs_before);
    EXPECT_EQ(tracker.reuse_count(), 1u);
    pool.release(b, 0);
}

TEST(MemoryPool, SmallRequestDoesNotPinHugeBlock) {
    simt::AllocationTracker tracker;
    simt::MemoryPool pool(tracker);
    auto* big = pool.acquire(1 << 20, 0);
    pool.release(big, 0);
    // A 4-byte cursor must not check out the idle 1 MiB block: its class is
    // far above the kSmallFitSpan search window.
    auto* tiny = pool.acquire(4, 0);
    EXPECT_NE(tiny, big);
    EXPECT_EQ(tiny->capacity, simt::MemoryPool::kMinBlockBytes);
    // A large request may take the bigger idle block.
    auto* large = pool.acquire(1 << 19, 0);
    EXPECT_EQ(large, big);
    pool.release(tiny, 0);
    pool.release(large, 0);
}

TEST(MemoryPool, CrossStreamReuseGatedOnClock) {
    simt::AllocationTracker tracker;
    simt::MemoryPool pool(tracker);
    double clock0 = 100.0;  // stream 0's simulated time
    double clock1 = 0.0;    // stream 1 lags behind
    pool.set_stream_clock([&](int stream) { return stream == 0 ? clock0 : clock1; });

    auto* a = pool.acquire(512, /*stream=*/0);
    pool.release(a, 0);  // released at stream-0 clock 100

    // Stream 1 (clock 0) must NOT reuse it: stream 0's work may still be
    // in flight at stream 1's current time, and waiting would serialize.
    auto* b = pool.acquire(512, /*stream=*/1);
    EXPECT_NE(b, a);
    EXPECT_EQ(pool.stats().cross_stream, 0u);

    // Once stream 1 has advanced past the release time, reuse is safe
    // (b stays checked out, so a is the only idle candidate).
    clock1 = 200.0;
    auto* c = pool.acquire(512, /*stream=*/1);
    EXPECT_EQ(c, a);
    EXPECT_EQ(pool.stats().cross_stream, 1u);
    pool.release(b, 1);
    pool.release(c, 1);
}

TEST(MemoryPool, TrimDropsIdleBlocks) {
    simt::AllocationTracker tracker;
    simt::MemoryPool pool(tracker);
    auto* a = pool.acquire(4096, 0);
    auto* b = pool.acquire(4096, 0);
    pool.release(a, 0);
    EXPECT_EQ(pool.stats().idle_bytes, 4096u);
    const std::size_t dropped = pool.trim();
    EXPECT_EQ(dropped, 4096u);
    EXPECT_EQ(pool.stats().idle_bytes, 0u);
    EXPECT_EQ(pool.stats().reserved_bytes, 4096u);  // b is still checked out
    pool.release(b, 0);
}

TEST(PooledBuffer, MirrorsDeviceBufferSurface) {
    simt::AllocationTracker tracker;
    simt::MemoryPool pool(tracker);
    simt::PooledBuffer<float> buf(pool, 10);
    EXPECT_EQ(buf.size(), 10u);
    EXPECT_EQ(buf.bytes(), 40u);
    EXPECT_GE(buf.capacity(), 10u);
    buf[3] = 7.5f;
    EXPECT_FLOAT_EQ(buf.span()[3], 7.5f);
    simt::PooledBuffer<float> moved = std::move(buf);
    EXPECT_EQ(moved.size(), 10u);
    EXPECT_FLOAT_EQ(moved[3], 7.5f);
    EXPECT_EQ(buf.size(), 0u);  // NOLINT(bugprone-use-after-move): moved-from is empty
}

TEST(PooledBuffer, ZeroOnAcquireZeroesRecycledBlock) {
    simt::AllocationTracker tracker;
    simt::MemoryPool pool(tracker);
    {
        simt::PooledBuffer<std::int32_t> dirty(pool, 8);
        for (auto& v : dirty.span()) v = -1;
    }
    simt::PooledBuffer<std::int32_t> clean(pool, 8, /*stream=*/0, /*zeroed=*/true);
    EXPECT_EQ(pool.stats().hits, 1u);  // same block came back...
    for (const auto v : clean.span()) EXPECT_EQ(v, 0);  // ...but zeroed
}

// The headline property: a warm pool serves a whole selection from its
// free lists, so repeated selections on one device stop allocating.
TEST(MemoryPool, WarmSelectionAllocatesAtLeastFiveTimesLess) {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 16;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 11});

    (void)core::try_sample_select<float>(dev, data, n / 2, {}).value();
    const auto cold_allocs = dev.tracker().alloc_count();
    ASSERT_GT(cold_allocs, 0u);

    (void)core::try_sample_select<float>(dev, data, n / 2, {}).value();
    const auto warm_allocs = dev.tracker().alloc_count() - cold_allocs;
    EXPECT_LE(warm_allocs * 5, cold_allocs)
        << "warm run made " << warm_allocs << " backing allocations vs " << cold_allocs
        << " cold";
    EXPECT_GT(dev.tracker().reuse_count(), 0u);
}

}  // namespace
