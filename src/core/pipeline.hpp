#pragma once
// The SelectionPipeline layer: shared orchestration for every selection
// front-end (exact, approximate, multi-rank, batched fallback, top-k,
// quantile dispatch and sample-sort).
//
// The paper's algorithms all run the same bucketing level -- sample
// splitters -> count -> (reduce) -> filter (Sec. IV-B, Fig. 3), the last
// counting kernel locating the rank's bucket in its grid epilogue -- and
// differ only in how they descend through buckets: exact
// selection follows one bucket, multiselect a whole tree of them, top-k
// keeps the upper buckets, approximate selection and histograms stop after
// the count.  This header factors the level into one executor and the
// recursion policy (Sec. IV-E) into one step, so front-ends express only
// what a located bucket means to them:
//
//   * PipelinePlan      -- static shape of one level (grid size, buffer
//                          lengths) for an input size and config.
//   * PipelineContext   -- a device + config pair handing out *pooled*
//                          scratch buffers on the selection's stream (see
//                          simt/pool.hpp).  Zero-on-acquire goes through
//                          zeroed_i32(), which still launches the simulated
//                          memset so event counts are unchanged.
//   * try_run_bucket_level -- the level executor; returns a LevelOutcome
//                          owning the level's pooled buffers.
//   * finish_level      -- its count -> (reduce) tail, which locates the
//                          rank, over a caller-supplied tree (the sharded
//                          front-ends count against a merged splitter
//                          tree).
//   * try_level_step    -- the guaranteed-progress step every sampled
//                          descent runs per level: depth cap, sampled or
//                          deterministic fallback level, stall detection
//                          and tallies.
//   * filter_bucket / filter_topk -- bucket extraction on top of an
//                          outcome.
//   * LevelTail         -- the grid epilogue of a linear descent's filter
//                          launch: the base-case sort (and top-k's tail
//                          copy), or the next level's splitter draw.
//   * DataHolder/PingPong -- the two data buffers ping-ponged across
//                          recursion levels instead of a fresh `out`
//                          allocation per level (Sec. IV-A: auxiliary
//                          storage stays <= n/4 bytes for float).
//   * SelectionPipeline -- the linear descent loop (one bucket per level)
//                          behind exact selection and top-k; the tree
//                          descents (multiselect, sample sort) recurse
//                          through try_level_step themselves.
//
// Device-side recursion (CUDA Dynamic Parallelism, Sec. IV-E) is modeled by
// launch latency alone: every level below the first launches with
// LaunchOrigin::device (see level_origin) while the host drives the loop.
//
// Event-count contract: for a given front-end and config the kernel launch
// sequence (names, grids, origins, counters) is byte-identical to the
// pre-pipeline code, so golden event counts and simulated timings are
// unchanged; only host-side allocation behavior differs.  A context bound
// to an explicit stream (batched execution) launches the identical
// sequence on that stream: per-problem event streams match the serial
// path byte for byte, only the stream ids -- and therefore the overlap in
// simulated time -- differ.

// Robustness (docs/robustness.md): injected faults surface here as
// simt::AllocFault / simt::LaunchFault.  Both are thrown *before* any side
// effect (no clock advance, no counter merge, no reservation), so every
// step of a level is safe to retry verbatim.  The try_* level executors
// and the with_fault_retry wrapper implement the bounded-retry policy --
// alloc failure: pool trim + retry; launch failure: rerun (the level
// executors rerun the whole level with a fresh sample salt) -- and convert
// exhaustion into a typed Status instead of an escaping exception.

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/searchtree.hpp"
#include "core/status.hpp"
#include "simt/device.hpp"
#include "simt/fault.hpp"
#include "simt/pool.hpp"

namespace gpusel::core {

/// Attempts per step under injected faults (initial try + retries).  Covers
/// the default transient-burst lengths; longer bursts are treated as
/// permanent and surface as allocation_failed / launch_failed.
inline constexpr int kFaultRetryAttempts = 4;

/// Static shape of one bucketing level.
struct PipelinePlan {
    std::size_t n = 0;
    std::size_t num_buckets = 0;
    int grid = 0;
    bool shared_mode = false;
    bool write_oracles = true;

    [[nodiscard]] static PipelinePlan make(const simt::Device& dev, std::size_t n,
                                           const SampleSelectConfig& cfg,
                                           bool write_oracles = true);

    /// Length of the per-block partial-counts buffer (0 in global mode).
    [[nodiscard]] std::size_t block_counts_len() const {
        return shared_mode ? static_cast<std::size_t>(grid) * num_buckets : 0;
    }
    /// Auxiliary bytes one level keeps live at its filter step (oracles +
    /// totals + block counts + prefix), excluding the output bucket whose
    /// size is data-dependent.  Used by the Sec. IV-A bound test.
    [[nodiscard]] std::size_t scratch_bytes() const {
        return (write_oracles ? n : 0) +
               (num_buckets + block_counts_len() + num_buckets + 1) * sizeof(std::int32_t);
    }
};

/// A device + config pair that hands out pooled scratch on the selection's
/// stream.  Cheap to construct; one per selection invocation.  The stream
/// is explicit so a batch executor can run many selections with one shared
/// config, each on its own stream; the default (-1) keeps cfg.stream, so
/// single-problem front-ends are unchanged.
class PipelineContext {
public:
    /// Sentinel for "use cfg.stream".
    static constexpr int kConfigStream = -1;

    PipelineContext(simt::Device& dev, const SampleSelectConfig& cfg,
                    int stream = kConfigStream)
        : dev_(&dev), cfg_(&cfg), stream_(stream < 0 ? cfg.stream : stream) {}

    [[nodiscard]] simt::Device& dev() const noexcept { return *dev_; }
    [[nodiscard]] const SampleSelectConfig& cfg() const noexcept { return *cfg_; }
    /// The stream every launch and pooled checkout of this selection uses.
    [[nodiscard]] int stream() const noexcept { return stream_; }
    [[nodiscard]] bool shared_mode() const noexcept {
        return cfg_->atomic_space == simt::AtomicSpace::shared;
    }

    /// Pooled scratch ordered on the selection's stream.
    template <typename U>
    [[nodiscard]] simt::PooledBuffer<U> scratch(std::size_t n) const {
        return dev_->pooled<U>(n, stream_);
    }
    /// Zero-on-acquire: pooled int32 scratch zeroed by the simulated memset
    /// kernel (the launch is kept so event counts match hand-zeroed code).
    [[nodiscard]] simt::PooledBuffer<std::int32_t> zeroed_i32(std::size_t n,
                                                              simt::LaunchOrigin origin) const;

private:
    simt::Device* dev_;
    const SampleSelectConfig* cfg_;
    int stream_ = 0;
};

/// Knobs of the level executor (defaults = exact selection).
struct LevelOptions {
    /// Write per-element bucket oracles (needed by any later filter).
    bool write_oracles = true;
    /// Keep per-block exclusive prefix sums in block_counts (shared mode;
    /// needed by filter/scatter, skipped by count-only variants).
    bool keep_block_offsets = true;
    /// Locate `rank` and fill prefix/bucket metadata: the level's last
    /// counting kernel (reduce in shared mode, count in global mode) runs
    /// locate_epilogue after its grid.  Off, no epilogue runs.
    bool locate = true;
};

/// Everything one bucketing level produced; owns the level's pooled
/// buffers (they return to the pool on destruction).
template <typename T>
struct LevelOutcome {
    SearchTree<T> tree;
    int grid = 0;
    /// Bucket containing the requested rank (locate only).
    std::int32_t bucket = -1;
    bool equality = false;          ///< located bucket is an equality bucket
    std::size_t bucket_size = 0;    ///< totals[bucket]
    std::size_t rank_offset = 0;    ///< prefix[bucket]: rank rebase for descent
    std::size_t rank_above = 0;     ///< n - prefix[bucket+1]: elements in higher buckets

    simt::PooledBuffer<std::uint8_t> oracles;
    simt::PooledBuffer<std::int32_t> totals;
    simt::PooledBuffer<std::int32_t> block_counts;
    simt::PooledBuffer<std::int32_t> prefix;

    [[nodiscard]] std::span<const std::int32_t> totals_span() const { return totals.span(); }
    [[nodiscard]] std::span<const std::int32_t> prefix_span() const { return prefix.span(); }

    /// The value every element of equality bucket `b` holds (Sec. IV-C
    /// early exit).  Bucket 0 has no left splitter -- by construction
    /// SearchTree::build never marks it as an equality bucket, so hitting
    /// it here means corrupted metadata and throws instead of underflowing
    /// splitters[b - 1].
    [[nodiscard]] T equality_value(std::int32_t b) const;
};

/// The count -> (reduce) tail of a level over `tree`, locating `rank` in
/// the last counting kernel's grid epilogue when opt.locate is set;
/// shared by the sampled level (b = cfg.num_buckets splitters), the
/// deterministic fallback level (a 4-bucket tripartition tree) and the
/// sharded passes over a merged splitter tree.  Buffer lengths follow the
/// *tree's* bucket count -- identical to cfg.num_buckets on the sampled
/// path, so its event stream and pool traffic are unchanged.  `rank` is
/// only read when opt.locate is set.
template <typename T>
[[nodiscard]] LevelOutcome<T> finish_level(const PipelineContext& ctx, std::span<const T> data,
                                           std::size_t rank, simt::LaunchOrigin origin,
                                           SearchTree<T> tree, const LevelOptions& opt = {});

/// Runs one sampled bucketing level over `data`: sample splitters -> count
/// -> (reduce in shared mode), locating `rank` when opt.locate, under
/// with_fault_retry.  A retry reruns the whole level with a fresh sample
/// salt; the first attempt uses `salt` verbatim, so fault-free event
/// streams are unchanged.  A `drawn` tree (LevelTail) stands in for the
/// first attempt's sample launch; a retry samples afresh.
template <typename T>
[[nodiscard]] Result<LevelOutcome<T>> try_run_bucket_level(
    const PipelineContext& ctx, std::span<const T> data, std::size_t rank,
    simt::LaunchOrigin origin, std::uint64_t salt = 0, const LevelOptions& opt = {},
    std::optional<SearchTree<T>> drawn = std::nullopt);

/// Launch origin of a descent's level `level`: the host launches the first
/// level, deeper levels are device-side launches (Sec. IV-E).
[[nodiscard]] constexpr simt::LaunchOrigin level_origin(std::size_t level) noexcept {
    return level == 0 ? simt::LaunchOrigin::host : simt::LaunchOrigin::device;
}

/// Sample salt of a linear descent's level after `levels` located levels
/// and `stalls` consecutive stalls: each level and each rerun of a stalled
/// one draws a fresh sample.
[[nodiscard]] constexpr std::uint64_t level_salt(std::size_t levels, std::size_t stalls) noexcept {
    return levels * 977 + stalls * 7919;
}

/// Guaranteed-progress state of one descent path (docs/robustness.md).  A
/// linear descent keeps one; a tree descent hands a copy to each child.
struct DescentPath {
    /// Levels run on this path, stalled and fallback levels included;
    /// bounded by cfg.max_levels.
    std::size_t levels = 0;
    /// Consecutive stalled levels up to the last one (0 after progress).
    std::size_t stalls = 0;

    /// The last level stalled: its located bucket still held every element.
    [[nodiscard]] bool stalled() const noexcept { return stalls > 0; }
};

/// Deadline budget (docs/service.md): deadline_exceeded once cfg.deadline_ns
/// is set, `path` ran a level and the selection's stream clock passed the
/// deadline.  Every descent checks it before each level, never mid-kernel,
/// so an aborted descent leaves no partial writes in flight.  Level 0
/// always runs -- admission control owns up-front rejection.
[[nodiscard]] inline Status check_deadline(const PipelineContext& ctx, const DescentPath& path,
                                           const char* descent) {
    const double deadline = ctx.cfg().deadline_ns;
    if (deadline > 0.0 && path.levels > 0 && ctx.dev().stream_clock(ctx.stream()) > deadline) {
        return Status::failure(SelectError::deadline_exceeded,
                               std::string(descent) + ": deadline exceeded between levels");
    }
    return Status::success();
}

/// A descent's guaranteed-progress tallies, reported in its result.
struct ProgressTally {
    /// Stalled levels retried with a fresh splitter sample.
    std::size_t resamples = 0;
    /// Deterministic tripartition levels run.
    std::size_t fallback_levels = 0;
};

/// The guaranteed-progress level step that every sampled descent runs per
/// level.  It fails with depth_exceeded once `path` ran cfg.max_levels
/// levels.  Otherwise it runs a sampled level with the caller's `salt`, or
/// the deterministic fallback level once the path stalled past its
/// resampling budget (every level under cfg.force_fallback): a median-of-9
/// pivot p and splitters {p, p, p}, whose equality bucket makes every other
/// bucket shrink.  A level stalls when its located bucket is no equality
/// bucket and still holds all of `data`: the step counts a resample,
/// switches the path to the fallback past the budget, and returns
/// no_progress for a stall inside the fallback.  On a stall the
/// caller reruns the step on the same data (linear) or on the full-size
/// child (tree).  Updates `path`, `tally` and Device::robustness().
/// `drawn` is the level's tree drawn ahead by the previous level's filter
/// (LevelTail: sampled with `salt`, or the fallback's pivot tripartition);
/// it replaces the first attempt's sample or pivot launch.
template <typename T>
[[nodiscard]] Result<LevelOutcome<T>> try_level_step(const PipelineContext& ctx,
                                                     std::span<const T> data, std::size_t rank,
                                                     simt::LaunchOrigin origin, std::uint64_t salt,
                                                     DescentPath& path, ProgressTally& tally,
                                                     std::optional<SearchTree<T>> drawn = {});

/// Runs `step` under the bounded-retry fault policy: injected allocation
/// faults trigger a pool trim + retry, injected launch faults a plain
/// retry (every launch faults before any side effect, so reruns are safe),
/// each up to kFaultRetryAttempts attempts.  Returns success, or the typed
/// error the exhausted fault maps to.  Recovered retries are tallied into
/// Device::robustness().
template <typename F>
[[nodiscard]] Status with_fault_retry(const PipelineContext& ctx, F&& step) {
    const std::uint64_t uf_before = ctx.dev().tracker().underflow_count();
    for (int attempt = 1;; ++attempt) {
        try {
            step();
            // Epilogue invariant check: a tracker underflow recorded during
            // the step means paired charge/credit bookkeeping broke -- a
            // bug, reported through the typed channel instead of the bare
            // assert the tracker used to carry.
            if (ctx.dev().tracker().underflow_count() != uf_before) {
                return Status::failure(SelectError::internal,
                                       ctx.dev().tracker().underflow_note());
            }
            return Status::success();
        } catch (const simt::SanError& e) {
            // A sanitizer violation is a kernel bug, not bad luck: never
            // retried (a rerun would just trip the same contract again).
            return Status::failure(SelectError::sanitizer_violation, e.what());
        } catch (const simt::StreamSanError& e) {
            // Same policy for stream-ordering hazards: a missing event edge
            // is deterministic, a rerun would report it again.
            return Status::failure(SelectError::sanitizer_violation, e.what());
        } catch (const simt::AllocFault& e) {
            if (attempt >= kFaultRetryAttempts) {
                return Status::failure(SelectError::allocation_failed, e.what());
            }
            ctx.dev().pool().trim();  // give fragmented idle blocks back
            ++ctx.dev().robustness().alloc_retries;
        } catch (const simt::LaunchFault& e) {
            if (attempt >= kFaultRetryAttempts) {
                return Status::failure(SelectError::launch_failed, e.what());
            }
            ++ctx.dev().robustness().launch_retries;
        }
    }
}

/// Extracts `bucket`'s elements into `out` (sized to the bucket); the
/// launch runs `epilogue` after its grid.
template <typename T>
void filter_bucket(const PipelineContext& ctx, std::span<const T> data,
                   const LevelOutcome<T>& lv, std::int32_t bucket, std::span<T> out,
                   simt::LaunchOrigin origin, const simt::Device::KernelFn& epilogue = {});

/// Fused top-k extraction (Sec. IV-I): target bucket into `out`, all
/// higher-bucket elements appended to `acc` starting at slot `acc_fill`.
/// An `out` shorter than the bucket keeps only its first out.size() slots.
template <typename T>
void filter_topk(const PipelineContext& ctx, std::span<const T> data, const LevelOutcome<T>& lv,
                 std::span<T> out, std::span<T> acc, std::int32_t acc_fill,
                 simt::LaunchOrigin origin, const simt::Device::KernelFn& epilogue = {});

/// True when a linear descent sorts n elements outright (Sec. IV-D's base
/// case) instead of sampling a level over them.  The descent's record
/// (core/planner.hpp) reads the same predicate, so it names what ran.
[[nodiscard]] inline bool fits_base_case(std::size_t n, const SampleSelectConfig& cfg) noexcept {
    return n <= cfg.base_case_size;
}

/// The grid epilogue of a linear descent's filter launch (docs/
/// architecture.md): it finishes the level over the bucket the filter
/// filled, so the descent launches nothing else for it.  The host knows
/// the bucket's size before the launch and picks the tail then:
///   * a bucket that fits cfg.base_case_size is bitonic-sorted in place
///     (Sec. IV-D), and for top-k its top take.size() elements are copied
///     into `take`;
///   * a larger bucket gets the next level's tree drawn from it: the
///     sample with that level's first-attempt salt, or under
///     cfg.force_fallback the median-of-9 pivot probe.
/// The bodies are those of the `bitonic_sort`, `copy`, `sample` and
/// `pivot_sample` launches they replace, run by one warp (Device::launch).
template <typename T>
class LevelTail {
public:
    LevelTail(const PipelineContext& ctx, std::size_t bucket_size, std::uint64_t next_salt,
              std::span<T> take = {})
        : ctx_(&ctx),
          sorts_(fits_base_case(bucket_size, ctx.cfg())),
          salt_(next_salt),
          take_(take) {}

    /// The epilogue over `bucket`, the filter's output.  It writes the
    /// drawn splitters into this tail, which must outlive the launch; a
    /// retried launch redraws them.
    [[nodiscard]] simt::Device::KernelFn epilogue(std::span<T> bucket);
    /// After the launch: the next level's tree, or nullopt when the tail
    /// sorted the bucket.
    [[nodiscard]] std::optional<SearchTree<T>> drawn_tree();

private:
    const PipelineContext* ctx_;
    bool sorts_;
    std::uint64_t salt_;
    std::span<T> take_;
    std::vector<T> splitters_;
};

/// Coalesced device copy: dst[dst_base + i] = src[src_base + i].
template <typename T>
void launch_copy(simt::Device& dev, std::span<const T> src, std::size_t src_base,
                 std::span<T> dst, std::size_t dst_base, std::size_t count,
                 simt::LaunchOrigin origin, int block_dim, int stream = 0);

/// Base case (Sec. IV-D): bitonic-sorts `data` in place on the selection's
/// stream.
template <typename T>
void sort_base_case(const PipelineContext& ctx, std::span<T> data, simt::LaunchOrigin origin);

/// A data buffer for pipeline descent: a pooled block, viewed at a logical
/// length that can shrink as the recursion descends while the backing
/// checkout is reused.
template <typename T>
class DataHolder {
public:
    DataHolder() = default;

    /// Wraps an existing pooled checkout at logical length n.
    [[nodiscard]] static DataHolder from_pooled(simt::PooledBuffer<T> buf) {
        DataHolder h;
        h.len_ = buf.size();
        h.pooled_ = std::move(buf);
        return h;
    }
    /// Acquires a pooled buffer of n elements.
    [[nodiscard]] static DataHolder acquire(const PipelineContext& ctx, std::size_t n) {
        return from_pooled(ctx.scratch<T>(n));
    }
    /// Stages host input into a pooled buffer (an untimed host->device
    /// transfer, as everywhere in this simulator).
    [[nodiscard]] static DataHolder stage(const PipelineContext& ctx, std::span<const T> input) {
        auto h = acquire(ctx, input.size());
        std::copy(input.begin(), input.end(), h.span().begin());
        return h;
    }

    [[nodiscard]] std::span<T> span() noexcept {
        return pooled_.empty() ? std::span<T>{} : std::span<T>{pooled_.data(), len_};
    }
    [[nodiscard]] std::span<const T> span() const noexcept {
        return const_cast<DataHolder*>(this)->span();
    }
    [[nodiscard]] std::size_t size() const noexcept { return len_; }
    [[nodiscard]] bool empty() const noexcept { return len_ == 0; }
    /// Elements the backing storage can hold (>= size()).
    [[nodiscard]] std::size_t capacity() const noexcept { return pooled_.capacity(); }
    /// Shrinks the logical length without touching the backing storage.
    void view(std::size_t n) noexcept { len_ = n <= capacity() ? n : capacity(); }

private:
    simt::PooledBuffer<T> pooled_;
    std::size_t len_ = 0;
};

/// The two data buffers of a linear bucket descent.  Level L filters its
/// bucket from the active buffer into the inactive one, then flips; the
/// adopted input buffer itself becomes a write target from level 2 on, so
/// a whole selection touches at most two data allocations.
template <typename T>
class PingPong {
public:
    void reset(DataHolder<T> input) {
        slot_[0] = std::move(input);
        slot_[1] = DataHolder<T>{};
        active_ = 0;
    }
    [[nodiscard]] std::span<T> data() noexcept { return slot_[active_].span(); }
    [[nodiscard]] std::span<const T> data() const noexcept { return slot_[active_].span(); }
    [[nodiscard]] std::size_t size() const noexcept { return slot_[active_].size(); }

    /// The inactive slot viewed at n elements, (re)acquired only if its
    /// backing is too small -- after the first level it never is, because
    /// buckets shrink strictly.
    [[nodiscard]] std::span<T> back(const PipelineContext& ctx, std::size_t n) {
        DataHolder<T>& s = slot_[1 - active_];
        if (s.capacity() < n) {
            s = DataHolder<T>{};  // release before acquiring: the pool may hand the block back
            s = DataHolder<T>::acquire(ctx, n);
        }
        s.view(n);
        return s.span();
    }
    /// Makes the inactive slot (filled to n elements) the active buffer.
    void flip(std::size_t n) {
        slot_[1 - active_].view(n);
        active_ = 1 - active_;
    }

private:
    DataHolder<T> slot_[2];
    int active_ = 0;
};

/// How a linear descent ended (SelectionPipeline::descend).
struct LinearDescent {
    /// Levels that located a bucket; stalled levels are not counted.
    std::size_t levels = 0;
    /// True when the buffer reached the base case and is sorted in place;
    /// false when the bucket policy stopped at a located bucket.
    bool base_case = false;
    ProgressTally tally;
};

/// The linear descent: one located bucket per level over two ping-pong
/// data buffers.  Exact selection and top-k are bucket policies over its
/// descend() loop; the tree descents (multiselect, sample sort) branch and
/// recurse through try_level_step with their own buffers.  Each level's
/// filter launch finishes the level in its grid epilogue (LevelTail), so a
/// level below the first is count, reduce and filter, and the base case
/// runs in the last filter.
template <typename T>
class SelectionPipeline {
public:
    SelectionPipeline(simt::Device& dev, const SampleSelectConfig& cfg,
                      int stream = PipelineContext::kConfigStream)
        : ctx_(dev, cfg, stream) {}

    [[nodiscard]] const PipelineContext& context() const noexcept { return ctx_; }
    void reset(DataHolder<T> input) { data_.reset(std::move(input)); }
    [[nodiscard]] std::span<const T> data() const noexcept { return data_.data(); }
    [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
    [[nodiscard]] T value_at(std::size_t i) const noexcept { return data_.data()[i]; }

    /// The linear descent loop (Sec. IV-E).  Runs level steps over the
    /// current buffer until it fits the base case, bitonic-sorted in place
    /// (Sec. IV-D) by the last filter's tail or, for an input that fits it
    /// outright, by a sort launch; or until `on_bucket` stops.  The loop
    /// owns the deadline check between levels and the rank rebase: `rank`
    /// is the tracked rank, rebased into the current buffer as the descent
    /// goes.  `on_bucket(lv, origin) -> Result<bool>` owns what a located
    /// bucket means: true after it descended into lv.bucket (try_descend /
    /// try_descend_topk), false to stop.
    template <typename OnBucket>
    [[nodiscard]] Result<LinearDescent> descend(std::size_t& rank, OnBucket&& on_bucket) {
        const SampleSelectConfig& cfg = ctx_.cfg();
        LinearDescent d;
        if (fits_base_case(size(), cfg)) {
            // The sort launch faults before touching the data, so a retry
            // sees the unsorted input.
            Status s = with_fault_retry(
                ctx_, [&] { sort_base_case<T>(ctx_, data_.data(), level_origin(0)); });
            if (!s.ok()) return s;
            d.base_case = true;
            return d;
        }
        DescentPath path;
        for (;;) {
            const simt::LaunchOrigin origin = level_origin(d.levels);
            if (Status s = check_deadline(ctx_, path, "sample descent"); !s.ok()) return s;
            // A tree drawn by the last filter serves only this level's
            // first step: a stalled rerun samples afresh.
            Result<LevelOutcome<T>> step =
                try_level_step<T>(ctx_, data_.data(), rank, origin,
                                  level_salt(d.levels, path.stalls), path, d.tally,
                                  std::exchange(drawn_, std::nullopt));
            if (!step.ok()) return step.status();
            if (path.stalled()) continue;  // rerun the level on the same buffer
            const LevelOutcome<T> lv = step.take();
            ++d.levels;
            next_salt_ = level_salt(d.levels, 0);
            Result<bool> descended = on_bucket(lv, origin);
            if (!descended.ok()) return descended.status();
            if (!descended.value()) return d;
            rank -= lv.rank_offset;
            if (fits_base_case(size(), cfg)) {
                d.base_case = true;  // the filter's tail sorted it
                return d;
            }
        }
    }

    /// Filters the located bucket into the back buffer and makes it the
    /// current buffer; the filter's tail sorts it or draws the next level's
    /// tree from it.  The back-buffer acquisition and the filter launch
    /// retry under the bounded policy; the flip happens only after the
    /// filter succeeded, so a failed descent leaves the pipeline on its
    /// current (intact) buffer.
    [[nodiscard]] Status try_descend(const LevelOutcome<T>& lv, simt::LaunchOrigin origin) {
        LevelTail<T> tail(ctx_, lv.bucket_size, next_salt_);
        Status s = with_fault_retry(ctx_, [&] {
            auto out = data_.back(ctx_, lv.bucket_size);
            filter_bucket<T>(ctx_, data_.data(), lv, lv.bucket, out, origin, tail.epilogue(out));
        });
        if (!s.ok()) return s;
        data_.flip(lv.bucket_size);
        drawn_ = tail.drawn_tree();
        return s;
    }
    /// Top-k descent: the fused filter writes every higher bucket into
    /// `acc` from slot `fill` on, and the located bucket's `needed` top
    /// elements right after them where it can.  An equality bucket writes
    /// `needed` copies there and drops the rest; a bucket that fits the
    /// base case goes to the back buffer, whose tail sorts it and copies
    /// its top there.  Any other bucket goes to the back buffer for the
    /// next level.  Safe to retry: the fused filter rewrites both on every
    /// run (fresh cursors per attempt).
    [[nodiscard]] Status try_descend_topk(const LevelOutcome<T>& lv, std::span<T> acc,
                                          std::size_t fill, std::size_t needed,
                                          simt::LaunchOrigin origin) {
        const std::span<T> take = acc.subspan(fill + lv.rank_above, needed);
        const auto acc_fill = static_cast<std::int32_t>(fill);
        if (lv.equality) {
            return with_fault_retry(ctx_, [&] {
                filter_topk<T>(ctx_, data_.data(), lv, take, acc, acc_fill, origin);
            });
        }
        LevelTail<T> tail(ctx_, lv.bucket_size, next_salt_, take);
        Status s = with_fault_retry(ctx_, [&] {
            auto out = data_.back(ctx_, lv.bucket_size);
            filter_topk<T>(ctx_, data_.data(), lv, out, acc, acc_fill, origin,
                           tail.epilogue(out));
        });
        if (!s.ok()) return s;
        data_.flip(lv.bucket_size);
        drawn_ = tail.drawn_tree();
        return s;
    }

private:
    PipelineContext ctx_;
    PingPong<T> data_;
    /// The next level's first-attempt salt, and the tree the last filter's
    /// tail drew with it.
    std::uint64_t next_salt_ = 0;
    std::optional<SearchTree<T>> drawn_;
};

extern template struct LevelOutcome<float>;
extern template struct LevelOutcome<double>;
extern template class LevelTail<float>;
extern template class LevelTail<double>;
extern template class LevelTail<ArgPair>;
extern template LevelOutcome<float> finish_level<float>(const PipelineContext&,
                                                        std::span<const float>, std::size_t,
                                                        simt::LaunchOrigin, SearchTree<float>,
                                                        const LevelOptions&);
extern template LevelOutcome<double> finish_level<double>(const PipelineContext&,
                                                          std::span<const double>, std::size_t,
                                                          simt::LaunchOrigin, SearchTree<double>,
                                                          const LevelOptions&);
extern template Result<LevelOutcome<float>> try_level_step<float>(
    const PipelineContext&, std::span<const float>, std::size_t, simt::LaunchOrigin, std::uint64_t,
    DescentPath&, ProgressTally&, std::optional<SearchTree<float>>);
extern template Result<LevelOutcome<double>> try_level_step<double>(
    const PipelineContext&, std::span<const double>, std::size_t, simt::LaunchOrigin, std::uint64_t,
    DescentPath&, ProgressTally&, std::optional<SearchTree<double>>);
extern template Result<LevelOutcome<ArgPair>> try_level_step<ArgPair>(
    const PipelineContext&, std::span<const ArgPair>, std::size_t, simt::LaunchOrigin,
    std::uint64_t, DescentPath&, ProgressTally&, std::optional<SearchTree<ArgPair>>);
extern template Result<LevelOutcome<float>> try_run_bucket_level<float>(
    const PipelineContext&, std::span<const float>, std::size_t, simt::LaunchOrigin, std::uint64_t,
    const LevelOptions&, std::optional<SearchTree<float>>);
extern template Result<LevelOutcome<double>> try_run_bucket_level<double>(
    const PipelineContext&, std::span<const double>, std::size_t, simt::LaunchOrigin, std::uint64_t,
    const LevelOptions&, std::optional<SearchTree<double>>);
extern template void filter_bucket<float>(
    const PipelineContext&, std::span<const float>, const LevelOutcome<float>&, std::int32_t,
    std::span<float>, simt::LaunchOrigin, const simt::Device::KernelFn&);
extern template void filter_bucket<double>(
    const PipelineContext&, std::span<const double>, const LevelOutcome<double>&, std::int32_t,
    std::span<double>, simt::LaunchOrigin, const simt::Device::KernelFn&);
extern template void filter_topk<float>(
    const PipelineContext&, std::span<const float>, const LevelOutcome<float>&, std::span<float>,
    std::span<float>, std::int32_t, simt::LaunchOrigin, const simt::Device::KernelFn&);
extern template void filter_topk<double>(
    const PipelineContext&, std::span<const double>, const LevelOutcome<double>&, std::span<double>,
    std::span<double>, std::int32_t, simt::LaunchOrigin, const simt::Device::KernelFn&);
extern template void launch_copy<float>(simt::Device&, std::span<const float>, std::size_t,
                                        std::span<float>, std::size_t, std::size_t,
                                        simt::LaunchOrigin, int, int);
extern template void launch_copy<double>(simt::Device&, std::span<const double>, std::size_t,
                                         std::span<double>, std::size_t, std::size_t,
                                         simt::LaunchOrigin, int, int);
extern template void sort_base_case<float>(const PipelineContext&, std::span<float>,
                                           simt::LaunchOrigin);
extern template void sort_base_case<double>(const PipelineContext&, std::span<double>,
                                            simt::LaunchOrigin);
extern template struct LevelOutcome<ArgPair>;
extern template LevelOutcome<ArgPair> finish_level<ArgPair>(const PipelineContext&,
                                                            std::span<const ArgPair>, std::size_t,
                                                            simt::LaunchOrigin, SearchTree<ArgPair>,
                                                            const LevelOptions&);
extern template Result<LevelOutcome<ArgPair>> try_run_bucket_level<ArgPair>(
    const PipelineContext&, std::span<const ArgPair>, std::size_t, simt::LaunchOrigin,
    std::uint64_t, const LevelOptions&, std::optional<SearchTree<ArgPair>>);
extern template void filter_bucket<ArgPair>(
    const PipelineContext&, std::span<const ArgPair>, const LevelOutcome<ArgPair>&, std::int32_t,
    std::span<ArgPair>, simt::LaunchOrigin, const simt::Device::KernelFn&);
extern template void filter_topk<ArgPair>(
    const PipelineContext&, std::span<const ArgPair>, const LevelOutcome<ArgPair>&,
    std::span<ArgPair>, std::span<ArgPair>, std::int32_t, simt::LaunchOrigin,
    const simt::Device::KernelFn&);
extern template void launch_copy<ArgPair>(simt::Device&, std::span<const ArgPair>, std::size_t,
                                          std::span<ArgPair>, std::size_t, std::size_t,
                                          simt::LaunchOrigin, int, int);
extern template void sort_base_case<ArgPair>(const PipelineContext&, std::span<ArgPair>,
                                             simt::LaunchOrigin);

}  // namespace gpusel::core
