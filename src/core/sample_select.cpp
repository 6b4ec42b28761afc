#include "core/sample_select.hpp"

#include <memory>
#include <utility>

#include "core/backend.hpp"
#include "core/float_order.hpp"
#include "core/pipeline.hpp"
#include "core/planner.hpp"

namespace gpusel::core {

namespace {

template <typename T>
struct SelectState {
    SampleSelectConfig cfg;   // the pipeline keeps a pointer; pin the copy first
    SelectionPipeline<T> pipe;
    std::size_t rank = 0;
    /// Productive level index: feeds the sample salt and result.levels,
    /// exactly as before hardening (stalled levels do not advance it).
    std::size_t level = 0;
    /// Consecutive stalls at the current level (resets on any descent).
    std::size_t resample_tries = 0;
    /// Every bucketing level executed, including stalls and fallback
    /// levels; bounded by cfg.max_levels.
    std::size_t levels_run = 0;
    /// True while descending through deterministic tripartition levels.
    bool fallback = false;
    SelectResult<T> result;
    Status status = Status::success();
    bool done = false;

    SelectState(simt::Device& dev, const SampleSelectConfig& c, int stream)
        : cfg(c), pipe(dev, cfg, stream) {}
};

/// Executes one recursion level; returns true while more levels remain.
/// Failures (exhausted fault retries, progress policy, depth cap) land in
/// st.status and stop the recursion instead of escaping as exceptions.
template <typename T>
bool run_level(SelectState<T>& st) {
    simt::Device& dev = st.pipe.context().dev();
    const std::size_t n = st.pipe.size();
    const auto origin =
        st.level == 0 ? simt::LaunchOrigin::host : simt::LaunchOrigin::device;

    // Deadline budget (docs/service.md): checked between levels, never
    // mid-kernel, so aborted descents leave no partial writes in flight.
    // Level 0 always runs -- admission control owns up-front rejection.
    if (st.cfg.deadline_ns > 0.0 && st.levels_run > 0 &&
        dev.stream_clock(st.pipe.context().stream()) > st.cfg.deadline_ns) {
        st.status = Status::failure(SelectError::deadline_exceeded,
                                    "sample_select: deadline exceeded between levels");
        return false;
    }

    if (n <= st.cfg.base_case_size) {
        // Base case (Sec. IV-D): bitonic sort in shared memory, pick rank.
        st.status = st.pipe.try_sort_base_case(origin);
        if (!st.status.ok()) return false;
        st.result.value = st.pipe.value_at(st.rank);
        st.done = true;
        return false;
    }

    // Hard depth cap: with strict shrink guaranteed below, genuine inputs
    // terminate in O(log n) levels; the cap makes that provable even under
    // invariant-breaking bugs.
    if (st.levels_run >= static_cast<std::size_t>(st.cfg.max_levels)) {
        st.status = Status::failure(SelectError::depth_exceeded,
                                    "sample_select: max_levels bucketing levels exceeded");
        return false;
    }
    ++st.levels_run;

    const bool use_fallback = st.fallback || st.cfg.force_fallback;
    Result<LevelOutcome<T>> lvres =
        use_fallback
            ? st.pipe.try_run_fallback_level(st.rank, origin)
            : st.pipe.try_run_level(st.rank, origin,
                                    st.level * 977 + st.resample_tries * 7919);
    if (!lvres.ok()) {
        st.status = lvres.status();
        return false;
    }
    const LevelOutcome<T> lv = lvres.take();
    if (use_fallback) {
        ++st.result.fallback_levels;
        ++dev.robustness().fallback_levels;
    }

    if (lv.equality) {
        // Equality bucket: every element equals the splitter -- done.
        st.result.value = lv.equality_value(lv.bucket);
        st.result.equality_exit = true;
        ++st.result.levels;
        st.done = true;
        return false;
    }

    if (lv.bucket_size == n) {
        // Stalled level (pathological sample: the rank bucket did not
        // shrink).  Resample with a fresh salt up to max_stalled_levels
        // times, then switch to the deterministic fallback.
        if (use_fallback) {
            // The tripartition tree's equality bucket is non-empty by
            // construction, so a stalled fallback level means broken
            // invariants, not bad luck.
            st.status = Status::failure(
                SelectError::no_progress,
                "sample_select: deterministic fallback level failed to shrink the bucket");
            return false;
        }
        ++st.result.resamples;
        ++dev.robustness().resamples;
        if (++st.resample_tries > static_cast<std::size_t>(st.cfg.max_stalled_levels)) {
            st.fallback = true;
            ++dev.robustness().fallbacks;
        }
        return true;
    }

    st.status = st.pipe.try_descend(lv, origin);
    if (!st.status.ok()) return false;
    st.rank -= lv.rank_offset;
    ++st.level;
    ++st.result.levels;
    st.resample_tries = 0;
    // The stall was a property of the old buffer; once the fallback level
    // shrank it, sampled levels resume (their splits are much better).
    if (!st.cfg.force_fallback) st.fallback = false;
    return true;
}

template <typename T>
void enqueue_level(simt::Device& dev, std::shared_ptr<SelectState<T>> st) {
    dev.device_enqueue([st](simt::Device& d) {
        if (run_level(*st)) enqueue_level(d, st);
    });
}

}  // namespace

namespace detail {

template <typename T>
Result<SelectResult<T>> sample_select_descend(simt::Device& dev, DataHolder<T> data,
                                              std::size_t rank, const SampleSelectConfig& cfg,
                                              int stream) {
    auto st = std::make_shared<SelectState<T>>(dev, cfg, stream);
    st->pipe.reset(std::move(data));
    st->rank = rank;

    enqueue_level(dev, st);
    dev.drain();
    if (!st->status.ok()) return st->status;
    if (!st->done) {
        return Status::failure(SelectError::internal,
                               "sample_select: recursion did not terminate");
    }
    return std::move(st->result);
}

template Result<SelectResult<float>> sample_select_descend<float>(
    simt::Device&, DataHolder<float>, std::size_t, const SampleSelectConfig&, int);
template Result<SelectResult<double>> sample_select_descend<double>(
    simt::Device&, DataHolder<double>, std::size_t, const SampleSelectConfig&, int);
template Result<SelectResult<ArgPair>> sample_select_descend<ArgPair>(
    simt::Device&, DataHolder<ArgPair>, std::size_t, const SampleSelectConfig&, int);

}  // namespace detail

template <typename T>
Result<SelectResult<T>> try_sample_select_staged(simt::Device& dev, DataHolder<T> data,
                                                 std::size_t rank,
                                                 const SampleSelectConfig& cfg, int stream) {
    if (Status s = cfg.validate(/*exact=*/true); !s.ok()) return s;
    const std::size_t n = data.size();
    if (n == 0 || rank >= n) {
        return Status::failure(SelectError::rank_out_of_range, "rank out of range");
    }

    // NaN staging pre-pass (core/float_order.hpp): kernels never see NaN.
    // A no-op (and no reorder) on NaN-free data, so event streams match.
    const std::size_t nan_count = partition_nans_to_back(data.span());
    if (nan_count > 0) {
        if (cfg.nan_policy == NanPolicy::reject) {
            return Status::failure(SelectError::nan_keys_rejected,
                                   "sample_select: input contains NaN keys");
        }
        if (rank >= n - nan_count) {
            // The rank falls inside the NaN tail of the total order;
            // answered at staging without any device work.
            SelectResult<T> r{};
            r.value = quiet_nan<T>();
            r.nan_count = nan_count;
            return r;
        }
        data.view(n - nan_count);
    }

    // Plan which backend runs the NaN-free problem (host-side only; no
    // launches, so the chosen backend's event stream starts at t0).
    PlanQuery q;
    q.n = data.size();
    q.k = rank;
    q.base_case_size = cfg.base_case_size;
    const PlanDecision plan = plan_selection<T>(dev, std::span<const T>(data.span()), q,
                                                stream < 0 ? cfg.stream : stream);

    dev.tracker().set_baseline();
    const double t0 = dev.elapsed_ns();
    const std::uint64_t l0 = dev.launch_count();
    Result<SelectResult<T>> bres =
        selection_backend<T>(plan.backend).select(dev, std::move(data), rank, cfg, stream);
    if (!bres.ok()) return bres.status();
    SelectResult<T> res = bres.take();
    res.sim_ns = dev.elapsed_ns() - t0;
    res.launches = dev.launch_count() - l0;
    res.aux_bytes = dev.tracker().peak_above_baseline();
    res.nan_count = nan_count;
    return res;
}

template <typename T>
Result<SelectResult<T>> try_sample_select(simt::Device& dev, std::span<const T> input,
                                          std::size_t rank, const SampleSelectConfig& cfg) {
    PipelineContext ctx(dev, cfg);
    DataHolder<T> staged;
    // Staging acquires a pooled buffer, so it participates in the bounded
    // alloc-retry policy like every other acquisition.
    Status s = with_fault_retry(ctx, [&] { staged = DataHolder<T>::stage(ctx, input); });
    if (!s.ok()) return s;
    return try_sample_select_staged<T>(dev, std::move(staged), rank, cfg);
}

template Result<SelectResult<float>> try_sample_select<float>(
    simt::Device&, std::span<const float>, std::size_t, const SampleSelectConfig&);
template Result<SelectResult<double>> try_sample_select<double>(
    simt::Device&, std::span<const double>, std::size_t, const SampleSelectConfig&);
template Result<SelectResult<ArgPair>> try_sample_select<ArgPair>(
    simt::Device&, std::span<const ArgPair>, std::size_t, const SampleSelectConfig&);
template Result<SelectResult<float>> try_sample_select_staged<float>(
    simt::Device&, DataHolder<float>, std::size_t, const SampleSelectConfig&, int);
template Result<SelectResult<double>> try_sample_select_staged<double>(
    simt::Device&, DataHolder<double>, std::size_t, const SampleSelectConfig&, int);
template Result<SelectResult<ArgPair>> try_sample_select_staged<ArgPair>(
    simt::Device&, DataHolder<ArgPair>, std::size_t, const SampleSelectConfig&, int);

}  // namespace gpusel::core
