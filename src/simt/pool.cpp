#include "simt/pool.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>

#include "simt/fault.hpp"

namespace gpusel::simt {

namespace {

/// GPUSEL_POOL_POISON=1 fills every checkout with 0xA5 so code that relied
/// on DeviceBuffer's zero-initialized vectors fails loudly under tests.
bool poison_enabled() {
    static const bool on = [] {
        const char* env = std::getenv("GPUSEL_POOL_POISON");
        return env != nullptr && env[0] == '1';
    }();
    return on;
}

}  // namespace

int MemoryPool::class_of(std::size_t bytes) noexcept {
    const std::size_t clamped = std::max(bytes, kMinBlockBytes);
    return std::bit_width(clamped - 1);  // smallest c with 2^c >= clamped
}

PoolBlock* MemoryPool::take_from_class(int cls, int stream) {
    auto& list = free_[static_cast<std::size_t>(cls)];
    // Prefer the most recently released block of the same stream (LIFO for
    // warmth); stream order makes that reuse unconditionally safe.
    for (std::size_t i = list.size(); i-- > 0;) {
        if (list[i]->last_stream == stream) {
            PoolBlock* blk = list[i];
            list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
            return blk;
        }
    }
    // Cross-stream reuse only when it cannot introduce a wait: the block's
    // release timestamp must already lie in the acquiring stream's past.
    // Without a clock hook (standalone pool) there is no stream semantics
    // to preserve, so any idle block qualifies.
    for (std::size_t i = list.size(); i-- > 0;) {
        if (!stream_clock_ || list[i]->release_ns <= stream_clock_(stream)) {
            PoolBlock* blk = list[i];
            list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
            ++cross_stream_;
            return blk;
        }
    }
    return nullptr;
}

PoolBlock* MemoryPool::acquire(std::size_t bytes, int stream, bool zeroed) {
    if (bytes == 0) return nullptr;
    // Injected allocation fault: fail before touching any free list, so a
    // faulted checkout has zero side effects (like a cudaMallocAsync error).
    if (fault_hook_ && fault_hook_()) throw AllocFault(bytes);
    const int cls = class_of(bytes);

    // Exact class first, then a bounded walk upward.  Small requests stop
    // after kSmallFitSpan classes so a 4-byte cursor never pins a
    // multi-megabyte data block; large requests may take any bigger block.
    const int last_cls =
        bytes >= kLargeRequestBytes ? kNumClasses - 1 : std::min(cls + kSmallFitSpan,
                                                                 kNumClasses - 1);
    PoolBlock* blk = nullptr;
    for (int c = cls; c <= last_cls && blk == nullptr; ++c) {
        blk = take_from_class(c, stream);
    }

    bool reused = false;
    int prev_stream = stream;
    bool gated = true;
    if (blk == nullptr) {
        const std::size_t capacity = std::size_t{1} << cls;
        auto owned = std::make_unique<PoolBlock>();
        std::size_t space = capacity + kBlockAlign - 1;
        owned->storage = std::make_unique<std::byte[]>(space);
        void* start = owned->storage.get();
        owned->data = static_cast<std::byte*>(std::align(kBlockAlign, capacity, start, space));
        owned->capacity = capacity;
        owned->size_class = cls;
        blk = owned.get();
        blocks_.push_back(std::move(owned));
        reserved_bytes_ += capacity;
        ++fresh_;
        tracker_->on_alloc(bytes);
    } else {
        reused = true;
        prev_stream = blk->last_stream;
        // Same-stream reuse rides stream order; cross-stream reuse is
        // gated only when the clock hook proved the previous user done.
        gated = prev_stream == stream ||
                (stream_clock_ && blk->release_ns <= stream_clock_(stream));
        ++hits_;
        tracker_->on_reuse(bytes);
    }

    blk->last_stream = stream;
    blk->charged = bytes;
    const bool san_on = san_ != nullptr && san_->enabled();
    if (zeroed) {
        if (!blk->zeroed) std::memset(blk->data, 0, blk->capacity);
        blk->zeroed = true;
    } else {
        // SimTSan forces the poison fill: uninit-read detection needs every
        // non-zeroed checkout to start with a recognizable pattern.
        if (poison_enabled() || san_on) {
            std::memset(blk->data, static_cast<int>(kPoisonByte), blk->capacity);
        }
        blk->zeroed = false;
    }
    if (san_on) {
        // Canary-fill the free tail and register the user region.  Zeroed
        // checkouts are fully initialized by construction; poisoned ones
        // arm the uninit-read shadow.
        if (blk->capacity > bytes) {
            std::memset(blk->data + bytes, static_cast<int>(kCanaryByte),
                        blk->capacity - bytes);
        }
        san_->register_region(blk->data, bytes, /*mark_uninit=*/!zeroed, nullptr, 0,
                              blk->data + bytes, blk->capacity - bytes);
    }
    if (ssan_ != nullptr && ssan_->enabled()) {
        if (reused) ssan_->on_pool_reuse(blk->data, stream, prev_stream, gated);
        ssan_->register_region(blk->data, bytes);
    }
    return blk;
}

void MemoryPool::release(PoolBlock* block, int stream) {
    if (block == nullptr) return;
    // Record-only final canary sweep; release happens in destructors.
    if (san_ != nullptr) san_->unregister_region(block->data);
    // Record-only too: snapshots the releasing stream's clock as the
    // block's tombstone and flags accesses not ordered before the release.
    if (ssan_ != nullptr && ssan_->enabled()) {
        ssan_->on_pool_release(block->data, stream);
    }
    tracker_->on_recycle(block->charged);
    block->charged = 0;
    block->last_stream = stream;
    block->release_ns = stream_clock_ ? stream_clock_(stream) : 0.0;
    block->zeroed = false;  // conservatively: the checkout may have written
    free_[static_cast<std::size_t>(block->size_class)].push_back(block);
}

std::size_t MemoryPool::trim() {
    std::size_t dropped = 0;
    for (auto& list : free_) {
        for (PoolBlock* blk : list) {
            dropped += blk->capacity;
            if (ssan_ != nullptr) ssan_->forget(blk->data);
            auto it = std::find_if(blocks_.begin(), blocks_.end(),
                                   [blk](const auto& owned) { return owned.get() == blk; });
            assert(it != blocks_.end());
            blocks_.erase(it);
        }
        list.clear();
    }
    reserved_bytes_ -= dropped;
    return dropped;
}

std::map<int, std::size_t> MemoryPool::idle_bytes_by_stream() const {
    std::map<int, std::size_t> by;
    for (const auto& list : free_) {
        for (const PoolBlock* blk : list) by[blk->last_stream] += blk->capacity;
    }
    return by;
}

MemoryPool::Stats MemoryPool::stats_snapshot() const noexcept {
    Stats s;
    s.fresh = fresh_;
    s.hits = hits_;
    s.cross_stream = cross_stream_;
    s.reserved_bytes = reserved_bytes_;
    for (const auto& list : free_) {
        for (const PoolBlock* blk : list) s.idle_bytes += blk->capacity;
    }
    return s;
}

}  // namespace gpusel::simt
