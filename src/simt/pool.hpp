#pragma once
// Stream-aware device-memory arena.
//
// MemoryPool hands out raw byte blocks rounded up to power-of-two size
// classes and keeps released blocks on per-class free lists instead of
// returning them to the host allocator.  It models a stream-ordered device
// allocator (cudaMallocAsync-style): a block released while stream S was
// using it may be re-issued
//   - to the same stream immediately (stream order guarantees the previous
//     user finished before the next kernel on S starts), or
//   - to a different stream only if the releasing stream's work had already
//     completed by the acquiring stream's current clock -- so reuse never
//     introduces a cross-stream wait and independent streams keep their
//     idealized full overlap (see Streams.TwoSelectionsOverlapEndToEnd).
// Otherwise the pool falls back to a fresh backing allocation.
//
// AllocationTracker integration: the pool charges the *requested* bytes of
// every checkout (on_alloc for fresh backing, on_reuse for a pool hit) and
// credits them back on release (on_recycle), so current()/peak()/
// peak_above_baseline() keep measuring true in-use auxiliary storage --
// the Sec. IV-A "<= n/4 bytes" claim stays checkable -- while alloc_count()
// counts only real backing allocations and therefore drops when the pool
// is warm.
//
// The pool is host-side bookkeeping only: acquiring or releasing a block
// never launches a kernel and never advances the simulated clock.  Callers
// that need zeroed memory launch their own simulated memset (see
// PipelineContext::zeroed_i32) so event counts are identical to the
// pre-pool code.  Not thread-safe: like DeviceBuffer, allocation happens on
// the host control thread between kernel launches.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "simt/memory.hpp"

namespace gpusel::simt {

/// One backing allocation managed by the pool.  Blocks live for the pool's
/// lifetime (until trim()) and cycle between "checked out" and a free list.
struct PoolBlock {
    /// Owns capacity + MemoryPool::kBlockAlign - 1 bytes.
    std::unique_ptr<std::byte[]> storage;
    /// Start of the block inside `storage`, on a kBlockAlign boundary: the
    /// host simulator's tile loops then see the same cache-line layout
    /// whatever the heap handed out.
    std::byte* data = nullptr;
    std::size_t capacity = 0;    ///< pow2 bytes actually backing the block
    int size_class = 0;          ///< log2(capacity)
    int last_stream = 0;         ///< stream of the most recent checkout
    double release_ns = 0.0;     ///< releasing stream's clock at release time
    std::size_t charged = 0;     ///< requested bytes charged while checked out
    bool zeroed = false;         ///< contents known to be all-zero
};

class MemoryPool {
public:
    /// Smallest block handed out; sub-64-byte requests round up to this.
    static constexpr std::size_t kMinBlockBytes = 64;
    /// Alignment of every block's data pointer (one cache line).
    static constexpr std::size_t kBlockAlign = 64;
    /// How many size classes above the exact fit a small request may search.
    static constexpr int kSmallFitSpan = 2;
    /// Requests at least this large may reuse any larger free block (a
    /// bigger block serving a big request never strands much capacity).
    static constexpr std::size_t kLargeRequestBytes = 4096;

    struct Stats {
        std::uint64_t fresh = 0;         ///< acquisitions backed by new memory
        std::uint64_t hits = 0;          ///< acquisitions served from a free list
        std::uint64_t cross_stream = 0;  ///< hits whose block last served another stream
        std::size_t reserved_bytes = 0;  ///< total backing capacity owned by the pool
        std::size_t idle_bytes = 0;      ///< capacity currently on free lists
    };

    explicit MemoryPool(AllocationTracker& tracker) : tracker_(&tracker) {}
    MemoryPool(const MemoryPool&) = delete;
    MemoryPool& operator=(const MemoryPool&) = delete;

    /// Installs the simulated-clock callback used to gate cross-stream
    /// reuse.  Without one (standalone unit tests) any idle block of a
    /// matching class is reusable.
    void set_stream_clock(std::function<double(int)> clock) { stream_clock_ = std::move(clock); }

    /// Installs the fault hook consulted before every non-empty checkout;
    /// returning true makes acquire() throw AllocFault without reserving
    /// anything.  Wired by the Device to its FaultInjector.
    void set_fault_hook(std::function<bool()> hook) { fault_hook_ = std::move(hook); }

    /// Installs the sanitizer (may be nullptr).  With one active, every
    /// checkout registers its requested bytes for shadow tracking, forces
    /// the 0xA5 poison fill on non-zeroed blocks (arming uninit-read
    /// detection), and canary-fills the free tail [bytes, capacity);
    /// release() sweeps and unregisters.  Wired by Device::set_sanitizer.
    void set_sanitizer(Sanitizer* san) noexcept { san_ = san; }

    /// Installs the stream sanitizer (may be nullptr).  With one active,
    /// every checkout registers its requested bytes for happens-before
    /// tracking and reports how the block was re-issued (same-stream /
    /// clock-gated / un-gated cross-stream); release() records the
    /// releasing stream's vector clock as the block's tombstone.  Wired by
    /// Device::set_stream_sanitizer.
    void set_stream_sanitizer(StreamSan* ssan) noexcept { ssan_ = ssan; }

    /// Checks out a block of at least `bytes` bytes for `stream`.  Returns
    /// nullptr for a zero-byte request.  If `zeroed`, the block's contents
    /// are all-zero on return via a host-side memset (callers that must
    /// model the zeroing cost launch a simulated memset instead).
    PoolBlock* acquire(std::size_t bytes, int stream, bool zeroed = false);

    /// Returns a checked-out block to its free list.  `stream` is the
    /// stream whose enqueued work last touched the block.
    void release(PoolBlock* block, int stream);

    /// Drops all idle blocks, returning the backing bytes released.
    std::size_t trim();

    [[nodiscard]] Stats stats() const noexcept { return stats_snapshot(); }

    /// Idle (free-list) capacity keyed by the stream that last used each
    /// block.  Under multi-stream batched execution this shows the
    /// per-stream arenas the pool has effectively partitioned itself into:
    /// same-stream reuse is unconditional, so each stream accumulates a
    /// working set of its own recently released blocks.
    [[nodiscard]] std::map<int, std::size_t> idle_bytes_by_stream() const;

private:
    [[nodiscard]] static int class_of(std::size_t bytes) noexcept;
    [[nodiscard]] PoolBlock* take_from_class(int cls, int stream);
    [[nodiscard]] Stats stats_snapshot() const noexcept;

    static constexpr int kNumClasses = 48;

    AllocationTracker* tracker_;
    Sanitizer* san_ = nullptr;
    StreamSan* ssan_ = nullptr;
    std::function<double(int)> stream_clock_;
    std::function<bool()> fault_hook_;
    std::vector<std::unique_ptr<PoolBlock>> blocks_;           ///< owns every block
    std::array<std::vector<PoolBlock*>, kNumClasses> free_{};  ///< idle blocks per class
    std::uint64_t fresh_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t cross_stream_ = 0;
    std::size_t reserved_bytes_ = 0;
};

/// Move-only RAII checkout of a typed array from a MemoryPool.  Mirrors the
/// DeviceBuffer<T> surface (span/data/size/operator[]) so pipeline code is
/// agnostic about which one backs a span.  Must not outlive its pool.
template <typename T>
class PooledBuffer {
    static_assert(std::is_trivially_copyable_v<T>,
                  "pooled device memory holds trivially copyable types only");

public:
    PooledBuffer() = default;
    PooledBuffer(MemoryPool& pool, std::size_t n, int stream = 0, bool zeroed = false)
        : pool_(&pool), n_(n), stream_(stream) {
        block_ = pool.acquire(n * sizeof(T), stream, zeroed);
    }
    PooledBuffer(PooledBuffer&& o) noexcept
        : pool_(o.pool_), block_(o.block_), n_(o.n_), stream_(o.stream_) {
        o.pool_ = nullptr;
        o.block_ = nullptr;
        o.n_ = 0;
    }
    PooledBuffer& operator=(PooledBuffer&& o) noexcept {
        if (this != &o) {
            release();
            pool_ = o.pool_;
            block_ = o.block_;
            n_ = o.n_;
            stream_ = o.stream_;
            o.pool_ = nullptr;
            o.block_ = nullptr;
            o.n_ = 0;
        }
        return *this;
    }
    PooledBuffer(const PooledBuffer&) = delete;
    PooledBuffer& operator=(const PooledBuffer&) = delete;
    ~PooledBuffer() { release(); }

    [[nodiscard]] std::size_t size() const noexcept { return n_; }
    [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
    [[nodiscard]] std::size_t bytes() const noexcept { return n_ * sizeof(T); }
    /// Elements the backing block could hold (>= size()).
    [[nodiscard]] std::size_t capacity() const noexcept {
        return block_ ? block_->capacity / sizeof(T) : 0;
    }
    [[nodiscard]] T* data() noexcept { return reinterpret_cast<T*>(raw()); }
    [[nodiscard]] const T* data() const noexcept { return reinterpret_cast<const T*>(raw()); }
    [[nodiscard]] std::span<T> span() noexcept { return {data(), n_}; }
    [[nodiscard]] std::span<const T> span() const noexcept { return {data(), n_}; }
    T& operator[](std::size_t i) noexcept { return data()[i]; }
    const T& operator[](std::size_t i) const noexcept { return data()[i]; }
    /// Stream the checkout is ordered on.
    [[nodiscard]] int stream() const noexcept { return stream_; }

private:
    [[nodiscard]] std::byte* raw() const noexcept {
        return block_ ? block_->data : nullptr;
    }
    void release() noexcept {
        if (pool_ && block_) pool_->release(block_, stream_);
        pool_ = nullptr;
        block_ = nullptr;
        n_ = 0;
    }
    MemoryPool* pool_ = nullptr;
    PoolBlock* block_ = nullptr;
    std::size_t n_ = 0;
    int stream_ = 0;
};

}  // namespace gpusel::simt
