#include "simt/block.hpp"

#include <algorithm>
#include <stdexcept>

#include "simt/simd.hpp"

namespace gpusel::simt {

namespace {
/// Per-thread reusable shared-memory arena.  Blocks run to completion on
/// one host thread, so at most one BlockCtx per thread normally exists;
/// reusing the buffer avoids a 48-96 KiB allocate-and-zero per simulated
/// block.  The in-use flag guards the rare nested-BlockCtx case (a kernel
/// body constructing another block), which falls back to a private buffer.
thread_local std::vector<std::byte> tl_arena;
thread_local bool tl_arena_in_use = false;
}  // namespace

BlockCtx::BlockCtx(const ArchSpec& arch, int block_idx, int grid_dim, int block_dim,
                   std::size_t shared_limit, Sanitizer* san, StreamSan* ssan)
    : arch_(arch),
      block_idx_(block_idx),
      grid_dim_(grid_dim),
      block_dim_(block_dim),
      shared_limit_(shared_limit),
      san_(san),
      ssan_(ssan),
      armed_(san != nullptr || ssan != nullptr) {
    if (block_dim <= 0 || block_dim % kWarpSize != 0) {
        throw std::invalid_argument("block_dim must be a positive multiple of the warp size");
    }
    if (block_dim > arch.max_threads_per_block) {
        throw std::invalid_argument("block_dim exceeds max_threads_per_block");
    }
    // Claim the arena only after validation: a throwing constructor never
    // runs the destructor that would release the in-use flag.
    if (!tl_arena_in_use) {
        tl_arena_in_use = true;
        using_tl_arena_ = true;
        if (tl_arena.size() < shared_limit_) tl_arena.resize(shared_limit_);
        shared_mem_ = tl_arena.data();
    } else {
        own_mem_.resize(shared_limit_);
        shared_mem_ = own_mem_.data();
    }
}

BlockCtx::~BlockCtx() {
    // Retire the scalar-access coalescer before the launch-end analysis
    // runs.  note_* cannot report (analysis is deferred to on_launch_end);
    // the only throw source is an allocation inside the first-touch path,
    // and dropping that note on OOM merely misses a race -- the soundness
    // stance StreamSan already takes.
    try {
        ssan_flush();
    } catch (...) {
    }
    if (using_tl_arena_) tl_arena_in_use = false;
}

void BlockCtx::shared_conflict(std::size_t g, bool is_write, bool is_atomic,
                               const char* primitive, std::uint64_t cell) {
    const auto c_warp = static_cast<std::uint32_t>((cell >> 1) & 0xffU);
    SanViolation v;
    v.kind = ViolationKind::shared_epoch;
    v.primitive = primitive;
    v.offset = g * kSanGranule;
    v.block = block_idx_;
    v.detail = std::string(is_atomic ? "atomic" : (is_write ? "write" : "read")) + " by warp " +
               std::to_string(current_warp_) + " of a word written by warp " +
               std::to_string(static_cast<int>(c_warp) - 2) + " with no sync() in between";
    san_->report(std::move(v));
}

int BlockCtx::distinct(const std::int32_t* idx, int n, std::size_t universe) {
    if (mark_.size() < universe) mark_.resize(universe, 0);
    ++epoch_;
    if (epoch_ == 0) {  // wrapped: reset marks
        std::fill(mark_.begin(), mark_.end(), 0);
        epoch_ = 1;
    }
    int d = 0;
    for (int l = 0; l < n; ++l) {
        const auto b = static_cast<std::size_t>(idx[l]);
        if (mark_[b] != epoch_) {
            mark_[b] = epoch_;
            ++d;
        }
    }
    return d;
}

void WarpCtx::touch_shared(std::uint64_t bytes) const {
    blk_->counters_.shared_bytes_accessed += bytes;
}

void WarpCtx::add_instr(std::uint64_t n) const { blk_->counters_.instructions += n; }

void WarpCtx::san_check_targets(AtomicSpace space, std::span<std::int32_t> counters,
                                const std::int32_t* which, const bool* active,
                                const char* primitive) const {
    if (space == AtomicSpace::shared) {
        blk_->check_shared_lanes(counters, which, active, lanes_, primitive);
        return;
    }
    // A negative target wraps past the span end and fails the bounds check.
    blk_->check_lanes(
        counters, lanes_, [active](int l) { return active == nullptr || active[l]; },
        [which](int l) { return static_cast<std::size_t>(which[l]); }, MemAccess::atomic,
        primitive);
}

namespace {
/// Applies one atomic add; global space uses std::atomic_ref because blocks
/// of a launch may execute concurrently on host threads.
inline std::int32_t apply_fetch_add(AtomicSpace space, std::int32_t& ctr, std::int32_t val) {
    if (space == AtomicSpace::global) {
        return std::atomic_ref<std::int32_t>(ctr).fetch_add(val, std::memory_order_relaxed);
    }
    const std::int32_t old = ctr;
    ctr += val;
    return old;
}
}  // namespace

void WarpCtx::atomic_add(AtomicSpace space, std::span<std::int32_t> counters,
                         const std::int32_t* bucket, std::int32_t val) const {
    san_check_targets(space, counters, bucket, nullptr, "atomic_add");
    auto& c = blk_->counters_;
    int d;
    if (space == AtomicSpace::shared && counters.size() <= simd::kMaxHistogramBins) {
        // Shared-space counters are block-private (blocks run sequentially
        // on one thread), so the adds need no atomic_ref; the fused
        // accumulate also returns the distinct count in the same pass.
        d = simd::histogram_accumulate(counters.data(), counters.size(), bucket, val, lanes_);
    } else {
        d = blk_->distinct(bucket, lanes_, counters.size());
        for (int l = 0; l < lanes_; ++l) {
            apply_fetch_add(space, counters[static_cast<std::size_t>(bucket[l])], val);
        }
    }
    const auto ops = static_cast<std::uint64_t>(lanes_);
    const auto coll = static_cast<std::uint64_t>(lanes_ - d);
    if (space == AtomicSpace::shared) {
        c.shared_atomic_ops += ops;
        c.shared_atomic_collisions += coll;
    } else {
        c.global_atomic_ops += ops;
        c.global_atomic_collisions += coll;
    }
}

void WarpCtx::atomic_add_aggregated(AtomicSpace space, std::span<std::int32_t> counters,
                                    const std::int32_t* bucket, int index_bits,
                                    std::int32_t val) const {
    san_check_targets(space, counters, bucket, nullptr, "atomic_add_aggregated");
    auto& c = blk_->counters_;
    // Fig. 6: one ballot per bucket-index bit to intersect the lane masks.
    c.warp_ballots += static_cast<std::uint64_t>(index_bits);

    if (space == AtomicSpace::shared && counters.size() <= simd::kMaxHistogramBins) {
        // Block-private counters: the per-group aggregated adds sum to the
        // same per-bucket totals as a plain histogram, and the group count
        // is the distinct count, so the fused pass covers both.
        const int groups =
            simd::histogram_accumulate(counters.data(), counters.size(), bucket, val, lanes_);
        c.shared_atomic_ops += static_cast<std::uint64_t>(groups);
        return;
    }

    // Group lanes by bucket; the group leader issues a single atomic with
    // the aggregated value.  One pass using the epoch scratch; slot_ maps
    // a marked bucket to its group index, so the pass is O(lanes) instead
    // of O(lanes * groups).
    auto& mark = blk_->mark_;
    auto& slot = blk_->slot_;
    if (mark.size() < counters.size()) {
        mark.resize(counters.size(), 0);
        slot.resize(counters.size(), 0);
    }
    ++blk_->epoch_;
    if (blk_->epoch_ == 0) {
        std::fill(mark.begin(), mark.end(), 0);
        blk_->epoch_ = 1;
    }
    // leader_of[g] / group_val[g] for up to kWarpSize groups.
    std::int32_t group_bucket[kWarpSize];
    std::int32_t group_val[kWarpSize];
    int groups = 0;
    for (int l = 0; l < lanes_; ++l) {
        const auto b = static_cast<std::size_t>(bucket[l]);
        if (mark[b] != blk_->epoch_) {
            mark[b] = blk_->epoch_;
            slot[b] = groups;
            group_bucket[groups] = bucket[l];
            group_val[groups] = val;
            ++groups;
        } else {
            group_val[slot[b]] += val;
        }
    }
    if (space == AtomicSpace::shared) {
        c.shared_atomic_ops += static_cast<std::uint64_t>(groups);
    } else {
        c.global_atomic_ops += static_cast<std::uint64_t>(groups);
    }
    for (int g = 0; g < groups; ++g) {
        apply_fetch_add(space, counters[static_cast<std::size_t>(group_bucket[g])], group_val[g]);
    }
}

void WarpCtx::fetch_add(AtomicSpace space, std::span<std::int32_t> counters,
                        const std::int32_t* which, std::int32_t* old_out, bool aggregated,
                        int index_bits, const bool* active) const {
    san_check_targets(space, counters, which, active, "fetch_add");
    auto& c = blk_->counters_;
    if (!aggregated) {
        std::int32_t targets[kWarpSize];
        int n_active = 0;
        for (int l = 0; l < lanes_; ++l) {
            if (active == nullptr || active[l]) targets[n_active++] = which[l];
        }
        const int d = n_active > 0 ? blk_->distinct(targets, n_active, counters.size()) : 0;
        const auto ops = static_cast<std::uint64_t>(n_active);
        const auto coll = static_cast<std::uint64_t>(n_active - d);
        if (space == AtomicSpace::shared) {
            c.shared_atomic_ops += ops;
            c.shared_atomic_collisions += coll;
        } else {
            c.global_atomic_ops += ops;
            c.global_atomic_collisions += coll;
        }
        for (int l = 0; l < lanes_; ++l) {
            if (active == nullptr || active[l]) {
                old_out[l] =
                    apply_fetch_add(space, counters[static_cast<std::size_t>(which[l])], 1);
            }
        }
        return;
    }

    // Aggregated: index_bits ballots partition the active lanes into
    // same-counter groups; the leader fetch-adds the group size once and
    // lanes receive lane-ordered sub-offsets.
    c.warp_ballots += static_cast<std::uint64_t>(index_bits);
    std::int32_t group_bucket[kWarpSize];
    std::int32_t group_size[kWarpSize];
    std::int32_t lane_group[kWarpSize];
    std::int32_t lane_sub[kWarpSize];
    int groups = 0;
    for (int l = 0; l < lanes_; ++l) {
        if (active != nullptr && !active[l]) {
            lane_group[l] = -1;
            continue;
        }
        int g = -1;
        for (int j = 0; j < groups; ++j) {
            if (group_bucket[j] == which[l]) {
                g = j;
                break;
            }
        }
        if (g < 0) {
            g = groups++;
            group_bucket[g] = which[l];
            group_size[g] = 0;
        }
        lane_group[l] = g;
        lane_sub[l] = group_size[g]++;
    }
    if (space == AtomicSpace::shared) {
        c.shared_atomic_ops += static_cast<std::uint64_t>(groups);
    } else {
        c.global_atomic_ops += static_cast<std::uint64_t>(groups);
    }
    std::int32_t group_base[kWarpSize];
    for (int g = 0; g < groups; ++g) {
        group_base[g] = apply_fetch_add(
            space, counters[static_cast<std::size_t>(group_bucket[g])], group_size[g]);
    }
    for (int l = 0; l < lanes_; ++l) {
        if (lane_group[l] >= 0) old_out[l] = group_base[lane_group[l]] + lane_sub[l];
    }
}

}  // namespace gpusel::simt
