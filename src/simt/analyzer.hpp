#pragma once
// The checking layer SimTSan (simt/sanitizer.hpp) and StreamSan
// (simt/streamsan.hpp) share.
//
// Both analyzers see kernel memory traffic through one hook,
// BlockCtx::check / check_lanes (simt/block.hpp): every global-memory
// primitive calls it once per span it touches, it bounds-checks once,
// records SimTSan's shadow per access or per lane and hands StreamSan's
// access coalescer one byte envelope.  What else both analyzers need
// lives here, once:
//   * SanMode / mode_from_env() -- the one GPUSEL_SAN / GPUSEL_STREAMSAN
//     grammar;
//   * MemAccess -- how a primitive touches a span;
//   * RegionTable<R> -- the base-keyed region map with its thread-local,
//     generation-stamped lookup cache;
//   * ReportLog<V> -- the capped, thread-safe report sink.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

namespace gpusel::simt {

enum class SanMode { off, strict, collect };

/// Parses an analyzer variable (GPUSEL_SAN, GPUSEL_STREAMSAN):
/// unset/""/"0"/"off" -> off; "1"/"strict"/"on" -> strict; "2"/"collect"
/// -> collect.  Anything else throws std::invalid_argument naming the
/// variable and the rejected value (fail loudly, like GPUSEL_FAULTS).
[[nodiscard]] SanMode mode_from_env(const char* var);

/// How a primitive touches a span.  An atomic is a read-modify-write: for
/// SimTSan it conflicts only with plain accesses, for StreamSan it orders
/// like a write.
enum class MemAccess : std::uint8_t { read, write, atomic };

/// One analyzer's registry of global-memory regions, keyed by base
/// address.  R must have `std::uintptr_t base` and `std::size_t bytes`
/// members; insert() fills them.  Mutated only on the host control thread
/// between launches (the pool's discipline), so lookups from block
/// workers need no lock.
///
/// Lookups go through a thread-local four-entry cache, round-robin
/// replacement.  Kernel hot loops hammer a small working set of spans
/// tile after tile -- typically the input data, an output buffer and an
/// oracle/flag array interleaved per iteration -- so one entry thrashes
/// on the alternation while four hold the whole set.  An entry maps
/// [lo, hi) to its region, or to nullptr for a known gap between regions:
/// the most-accessed span of all, the staged input, is often a host
/// vector with no region, so misses are cached too.  thread_local keeps
/// the cache coherent across the block worker pool.
///
/// The cache is validated by the table's generation alone, redrawn on
/// every insert and erase from one counter that every RegionTable<R>
/// shares (as it shares the cache), so no two table states ever hold the
/// same value.  Never a per-table counter: two tables could then agree on
/// a generation -- say one built where malloc recycled a destroyed one's
/// address -- and a stale entry would pass the check and hand out a
/// dangling R*.
template <typename R>
class RegionTable {
public:
    RegionTable() = default;
    RegionTable(const RegionTable&) = delete;
    RegionTable& operator=(const RegionTable&) = delete;

    /// Registers `r` over [base, base + bytes), replacing any region at
    /// the same base.
    R& insert(const void* base, std::size_t bytes, R r = {}) {
        r.base = reinterpret_cast<std::uintptr_t>(base);
        r.bytes = bytes;
        R& slot = map_[r.base] = std::move(r);
        gen_ = next_gen();
        return slot;
    }
    /// Drops the region based at `base`, if any.
    void erase(const void* base) noexcept {
        if (map_.erase(reinterpret_cast<std::uintptr_t>(base)) != 0) gen_ = next_gen();
    }
    /// The region based exactly at `base`, or nullptr.
    [[nodiscard]] R* at(const void* base) noexcept {
        const auto it = map_.find(reinterpret_cast<std::uintptr_t>(base));
        return it == map_.end() ? nullptr : &it->second;
    }

    /// The region containing [p, p + bytes), or nullptr for unregistered
    /// memory (host vectors, stack locals) -- those are skipped, not errors.
    [[nodiscard]] R* find(const void* p, std::size_t bytes) noexcept {
        const auto addr = reinterpret_cast<std::uintptr_t>(p);
        const Cache& c = tl_cache_;
        if (c.gen == gen_) [[likely]] {
            // Zeroed entries are inert: lo == hi == 0 never contains a range.
            for (const auto& e : c.e) {
                if (addr >= e.lo && addr + bytes <= e.hi) return e.region;
            }
        }
        return find_slow(addr, bytes);
    }

    [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }
    auto begin() noexcept { return map_.begin(); }
    auto end() noexcept { return map_.end(); }

private:
    struct Cache {  // aggregate, zero-initialized at thread start: gen 0 is no table's
        std::uint64_t gen;
        struct Entry {
            std::uintptr_t lo;  ///< cached answer for addresses in [lo, hi):
            std::uintptr_t hi;
            R* region;          ///< the containing region, or nullptr for a gap
        } e[4];
        unsigned next;  ///< round-robin replacement cursor
    };
    static inline thread_local Cache tl_cache_{};

    [[nodiscard]] static std::uint64_t next_gen() noexcept {
        static std::atomic<std::uint64_t> src{1};
        return src.fetch_add(1, std::memory_order_relaxed);
    }

    R* find_slow(std::uintptr_t addr, std::size_t bytes) noexcept {
        Cache& c = tl_cache_;
        if (c.gen != gen_) c = Cache{gen_, {}, 0};  // another table's or a stale state
        const auto cache = [&c](std::uintptr_t lo, std::uintptr_t hi, R* r) {
            c.e[c.next++ & 3u] = {lo, hi, r};
        };
        // upper_bound: first region with base > addr; its predecessor is the
        // only candidate container.  The two neighbors also bound the gap.
        auto it = map_.upper_bound(addr);
        const std::uintptr_t gap_hi =
            it == map_.end() ? std::numeric_limits<std::uintptr_t>::max() : it->first;
        std::uintptr_t gap_lo = 0;
        if (it != map_.begin()) {
            R& r = std::prev(it)->second;
            if (addr >= r.base && addr + bytes <= r.base + r.bytes) {
                cache(r.base, r.base + r.bytes, &r);
                return &r;
            }
            gap_lo = r.base + r.bytes;
        }
        // Cache the miss only when [addr, addr + bytes) sits cleanly in the
        // gap (a range straddling a region edge has no gap to name).
        if (addr >= gap_lo && addr + bytes <= gap_hi) cache(gap_lo, gap_hi, nullptr);
        return nullptr;
    }

    std::map<std::uintptr_t, R> map_;
    std::uint64_t gen_ = next_gen();
};

/// Capped report sink: counts every report and keeps the first
/// kMaxStored.  Thread-safe, because block workers report concurrently.
template <typename V>
class ReportLog {
public:
    static constexpr std::size_t kMaxStored = 128;

    void record(const V& v) {
        total_.fetch_add(1, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(mu_);
        if (stored_.size() < kMaxStored) stored_.push_back(v);
    }
    [[nodiscard]] std::vector<V> stored() const {
        const std::lock_guard<std::mutex> lock(mu_);
        return stored_;
    }
    [[nodiscard]] std::uint64_t total() const noexcept {
        return total_.load(std::memory_order_relaxed);
    }
    void clear() {
        const std::lock_guard<std::mutex> lock(mu_);
        stored_.clear();
        total_.store(0, std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> total_{0};
    mutable std::mutex mu_;
    std::vector<V> stored_;
};

}  // namespace gpusel::simt
