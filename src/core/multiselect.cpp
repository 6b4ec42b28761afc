#include "core/multiselect.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "core/batch_executor.hpp"
#include "core/float_order.hpp"
#include "core/pipeline.hpp"
#include "core/planner.hpp"

namespace gpusel::core {

namespace {

/// One pending (rank within the current buffer, output slot) pair.
struct Target {
    std::size_t rank;
    std::size_t out_slot;
};

/// Tree descent: one bucketing level shared by all targets in `buf`, then
/// recursion per populated bucket.  Unlike the linear sample_select
/// descent, children branch, so each child gets its own pooled holder
/// (released back to the pool when its subtree is done) instead of the
/// two-buffer ping-pong.
///
/// `path` is the guaranteed-progress state of this node's path
/// (try_level_step); every child inherits the state the node's level left,
/// so the full-size child of a stalled level re-samples with its
/// depth-based salt, or runs the fallback level once past the budget.
///
/// `fan` (may be null) is the stream fan for the first level that splits
/// the targets into more than one bucket: each bucket subtree then runs on
/// its own lane (children wait on the level's event, the base stream joins
/// them at the end) and deeper recursions stay on their lane's stream.
/// Levels that do not split (stalls, single-bucket descents) pass the fan
/// down unused, so the fan applies to the first *partitioning* level.
template <typename T>
Status solve(const PipelineContext& ctx, DataHolder<T> buf, std::vector<Target> targets,
             DescentPath path, MultiSelectResult<T>& res, ProgressTally& tally, StreamFan* fan) {
    const SampleSelectConfig& cfg = ctx.cfg();
    const std::size_t n = buf.size();
    const std::size_t depth = path.levels;
    res.max_depth = std::max(res.max_depth, depth);
    const auto origin = level_origin(depth);

    if (n <= cfg.base_case_size) {
        Status s = with_fault_retry(ctx, [&] { sort_base_case<T>(ctx, buf.span(), origin); });
        if (!s.ok()) return s;
        for (const Target& t : targets) res.values[t.out_slot] = buf.span()[t.rank];
        return Status::success();
    }

    auto lvres = try_level_step<T>(ctx, buf.span(), targets.front().rank, origin, depth * 977,
                                   path, tally);
    if (!lvres.ok()) return lvres.status();
    const LevelOutcome<T> lv = lvres.take();

    const auto b = static_cast<std::size_t>(lv.tree.num_buckets);
    const auto prefix = lv.prefix_span();
    const auto totals = lv.totals_span();

    // Group target ranks by bucket.
    std::map<std::int32_t, std::vector<Target>> by_bucket;
    for (const Target& t : targets) {
        std::int32_t bucket = 0;
        for (std::size_t i = 0; i < b; ++i) {
            if (static_cast<std::size_t>(prefix[i]) <= t.rank) {
                bucket = static_cast<std::int32_t>(i);
            }
        }
        by_bucket[bucket].push_back(
            {t.rank - static_cast<std::size_t>(prefix[static_cast<std::size_t>(bucket)]),
             t.out_slot});
    }

    // Fan the bucket subtrees over the stream lanes once the level really
    // split the targets; the host still descends depth-first, so the
    // launch order is unchanged -- only the stream tags differ.
    const bool fanning = fan != nullptr && fan->count() > 1 && by_bucket.size() > 1;
    if (fanning) (void)fan->fork();
    std::size_t lane_idx = 0;

    for (auto& [bucket, sub] : by_bucket) {
        const auto ub = static_cast<std::size_t>(bucket);
        if (lv.tree.equality[ub]) {
            const T v = lv.equality_value(bucket);
            for (const Target& t : sub) res.values[t.out_slot] = v;
            continue;
        }
        const auto bucket_size = static_cast<std::size_t>(totals[ub]);
        const PipelineContext child_ctx =
            fanning ? PipelineContext(ctx.dev(), cfg,
                                      fan->stream(fan->lane_of(lane_idx++)))
                    : ctx;
        DataHolder<T> child;
        Status s = with_fault_retry(child_ctx, [&] {
            child = DataHolder<T>::acquire(child_ctx, bucket_size);
            filter_bucket<T>(child_ctx, buf.span(), lv, bucket, child.span(), origin);
        });
        if (!s.ok()) return s;
        s = solve(child_ctx, std::move(child), std::move(sub), path, res, tally,
                  fanning ? nullptr : fan);
        if (!s.ok()) return s;
    }
    if (fanning) fan->join();
    return Status::success();
}

}  // namespace

template <typename T>
Result<MultiSelectResult<T>> try_multi_select(simt::Device& dev, std::span<const T> input,
                                              std::span<const std::size_t> ranks,
                                              const SampleSelectConfig& cfg) {
    if (Status vs = cfg.validate(/*exact=*/true); !vs.ok()) return vs;
    const std::size_t n = input.size();
    if (ranks.empty()) return MultiSelectResult<T>{};
    for (std::size_t r : ranks) {
        if (r >= n) {
            return Status::failure(SelectError::rank_out_of_range, "rank out of range");
        }
    }

    PipelineContext ctx(dev, cfg);
    DataHolder<T> buf;
    Status s = with_fault_retry(ctx, [&] { buf = DataHolder<T>::stage(ctx, input); });
    if (!s.ok()) return s;

    MultiSelectResult<T> res;
    res.values.resize(ranks.size());

    // NaN staging pre-pass: ranks inside the NaN tail of the total order
    // answer quiet NaN; the rest descend over the non-NaN prefix.
    const std::size_t nan_count = partition_nans_to_back(buf.span());
    if (nan_count > 0 && cfg.nan_policy == NanPolicy::reject) {
        return Status::failure(SelectError::nan_keys_rejected,
                               "multi_select: input contains NaN keys");
    }
    const std::size_t n_num = n - nan_count;
    std::vector<Target> targets;
    targets.reserve(ranks.size());
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        if (ranks[i] >= n_num) {
            res.values[i] = quiet_nan<T>();
        } else {
            targets.push_back({ranks[i], i});
        }
    }
    res.nan_count = nan_count;
    buf.view(n_num);

    if (!targets.empty()) {
        // Multi-rank descent is planned structurally: the bucket tree is
        // the only backend sharing one partition level across all targets,
        // so the decision is recorded (planner log + backend tallies)
        // rather than probed per rank.  An env-forced radix/bitonic
        // override is infeasible here and falls through to sample.
        PlanQuery q;
        q.n = buf.size();
        q.k = targets.size();
        q.multi = true;
        q.elem_size = sizeof(T);
        q.base_case_size = cfg.base_case_size;
        record_planned_decision(dev, plan(q, DistributionHints{}, backend_env_override()),
                                q.n, q.k, ctx.stream());
    }

    const double t0 = dev.elapsed_ns();
    const std::uint64_t l0 = dev.launch_count();
    if (!targets.empty()) {
        // Independent ranks are independent sub-problems after the first
        // partition level: fan their bucket subtrees over leased streams.
        Result<int> fan_width = try_resolve_stream_count(targets.size());
        if (!fan_width.ok()) return fan_width.status();
        StreamFan fan(dev, fan_width.value(), ctx.stream());
        res.streams_used = fan.count();
        ProgressTally tally;
        s = solve(ctx, std::move(buf), std::move(targets), DescentPath{}, res, tally,
                  fan.count() > 1 ? &fan : nullptr);
        if (!s.ok()) return s;
        res.resamples = tally.resamples;
        res.fallback_levels = tally.fallback_levels;
    }
    res.sim_ns = dev.elapsed_ns() - t0;
    res.launches = dev.launch_count() - l0;
    return res;
}

template Result<MultiSelectResult<float>> try_multi_select<float>(simt::Device&,
                                                                  std::span<const float>,
                                                                  std::span<const std::size_t>,
                                                                  const SampleSelectConfig&);
template Result<MultiSelectResult<double>> try_multi_select<double>(simt::Device&,
                                                                    std::span<const double>,
                                                                    std::span<const std::size_t>,
                                                                    const SampleSelectConfig&);

}  // namespace gpusel::core
