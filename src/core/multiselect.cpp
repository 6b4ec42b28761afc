#include "core/multiselect.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "bitonic/bitonic.hpp"
#include "core/batch_executor.hpp"
#include "core/filter_kernel.hpp"
#include "core/float_order.hpp"
#include "core/opening.hpp"
#include "core/pipeline.hpp"
#include "core/planner.hpp"

namespace gpusel::core {

namespace {

/// One pending (rank within the current buffer, output slot) pair.
struct Target {
    std::size_t rank;
    std::size_t out_slot;
};

/// One filter launch for every kept bucket of a level: bucket b lands in
/// out[seg_start[b], ...), -1 drops it.  The table and, in global mode, the
/// per-bucket cursors are seeded by the controller step (uncharged host
/// writes, as filter_topk seeds its cursors), so a retry reseeds them.
template <typename T>
void filter_segments(const PipelineContext& ctx, std::span<const T> data,
                     const LevelOutcome<T>& lv, const std::vector<std::int32_t>& seg_start,
                     std::span<T> out, simt::LaunchOrigin origin) {
    auto table = ctx.scratch<std::int32_t>(seg_start.size());
    std::copy(seg_start.begin(), seg_start.end(), table.span().begin());
    simt::PooledBuffer<std::int32_t> cursors;
    if (!ctx.shared_mode()) {
        cursors = ctx.scratch<std::int32_t>(seg_start.size());
        std::copy(seg_start.begin(), seg_start.end(), cursors.span().begin());
    }
    filter_buckets_kernel<T>(ctx.dev(), data, lv.oracles.span(), table.span(), out,
                             lv.block_counts.span(), cursors.span(), ctx.cfg(), origin, lv.grid,
                             ctx.stream(), "filter");
}

/// Tree descent: one bucketing level shared by all targets in `data`, then
/// three steps.  ONE multi-bucket filter launch writes every non-equality
/// bucket holding a target into its own segment of one pooled buffer; ONE
/// batched bitonic launch sorts every segment of at most
/// cfg.base_case_size elements, whose targets are answered from it; only
/// the larger segments recurse, in place on their segment.  The pooled
/// buffer lives until the node's subtrees are done.
///
/// `path` is the guaranteed-progress state of this node's path
/// (try_level_step); every child inherits the state the node's level left,
/// so the full-size child of a stalled level re-samples with its
/// depth-based salt, or runs the fallback level once past the budget.
///
/// `fan` (may be null) is the stream fan for the first level with more
/// than one oversized child: each such subtree then runs on its own lane
/// (the lanes wait on the level's filter and base case, the base stream
/// joins them at the end) and deeper recursions stay on their lane's
/// stream.  Levels with at most one oversized child pass the fan down
/// unused.
template <typename T>
Status solve(const PipelineContext& ctx, std::span<T> data, std::vector<Target> targets,
             DescentPath path, MultiSelectResult<T>& res, ProgressTally& tally, StreamFan* fan) {
    const SampleSelectConfig& cfg = ctx.cfg();
    const std::size_t depth = path.levels;
    res.max_depth = std::max(res.max_depth, depth);
    const auto origin = level_origin(depth);
    if (Status s = check_deadline(ctx, path, "multi_select"); !s.ok()) return s;

    if (data.size() <= cfg.base_case_size) {
        Status s = with_fault_retry(ctx, [&] { sort_base_case<T>(ctx, data, origin); });
        if (!s.ok()) return s;
        for (const Target& t : targets) res.values[t.out_slot] = data[t.rank];
        return Status::success();
    }

    auto lvres = try_level_step<T>(ctx, std::span<const T>(data), targets.front().rank, origin,
                                   depth * 977, path, tally);
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

    // Equality buckets answer at once; every other bucket holding a target
    // gets its own segment.  Small segments are sorted by ONE batched
    // bitonic launch (one block per segment), launched as part of the
    // children's level; only oversized segments recurse.
    std::vector<std::int32_t> seg_start(b, -1);
    std::vector<bitonic::Segment> small;
    std::vector<std::int32_t> oversized;
    std::size_t kept = 0;
    for (const auto& [bucket, sub] : by_bucket) {
        const auto ub = static_cast<std::size_t>(bucket);
        if (lv.tree.equality[ub]) {
            const T v = lv.equality_value(bucket);
            for (const Target& t : sub) res.values[t.out_slot] = v;
            continue;
        }
        const bitonic::Segment seg{kept, static_cast<std::size_t>(totals[ub])};
        seg_start[ub] = static_cast<std::int32_t>(kept);
        kept += seg.length;
        if (seg.length > cfg.base_case_size) {
            oversized.push_back(bucket);
        } else if (seg.length > 1) {
            small.push_back(seg);
        }
    }
    if (kept == 0) return Status::success();

    simt::PooledBuffer<T> segs;
    Status s = with_fault_retry(ctx, [&] {
        segs = ctx.scratch<T>(kept);
        filter_segments<T>(ctx, std::span<const T>(data), lv, seg_start, segs.span(), origin);
    });
    if (!s.ok()) return s;
    if (!small.empty()) {
        s = with_fault_retry(ctx, [&] {
            bitonic::batched_sort_on_device<T>(ctx.dev(), segs.span(), small,
                                               level_origin(path.levels), cfg.block_dim,
                                               ctx.stream());
        });
        if (!s.ok()) return s;
    }
    for (const auto& [bucket, sub] : by_bucket) {
        const auto ub = static_cast<std::size_t>(bucket);
        if (seg_start[ub] < 0 || static_cast<std::size_t>(totals[ub]) > cfg.base_case_size) {
            continue;
        }
        res.max_depth = std::max(res.max_depth, path.levels);
        for (const Target& t : sub) {
            res.values[t.out_slot] = segs[static_cast<std::size_t>(seg_start[ub]) + t.rank];
        }
    }

    // Fan the oversized subtrees over the stream lanes once the level has
    // more than one; the host still descends depth-first, so the launch
    // order is unchanged -- only the stream tags differ.
    const bool fanning = fan != nullptr && fan->count() > 1 && oversized.size() > 1;
    if (fanning) (void)fan->fork();
    for (std::size_t i = 0; i < oversized.size(); ++i) {
        const auto ub = static_cast<std::size_t>(oversized[i]);
        const PipelineContext child_ctx =
            fanning ? PipelineContext(ctx.dev(), cfg, fan->stream(fan->lane_of(i))) : ctx;
        s = solve(child_ctx,
                  segs.span().subspan(static_cast<std::size_t>(seg_start[ub]),
                                      static_cast<std::size_t>(totals[ub])),
                  std::move(by_bucket[oversized[i]]), path, res, tally, fanning ? nullptr : fan);
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
    const PipelineContext ctx(dev, cfg);
    Result<Opened<T>> o = try_open<T>(ctx, input, check_ranks(input.size(), ranks));
    if (!o.ok()) return o.status();
    DataHolder<T>& buf = o.value().data;

    // Ranks inside the NaN tail of the total order answer quiet NaN; the
    // rest descend over the non-NaN prefix.
    MultiSelectResult<T> res;
    res.values.resize(ranks.size());
    res.nan_count = o.value().nan_count;
    std::vector<Target> targets;
    targets.reserve(ranks.size());
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        if (ranks[i] >= buf.size()) {
            res.values[i] = quiet_nan<T>();
        } else {
            targets.push_back({ranks[i], i});
        }
    }

    if (!targets.empty()) {
        // Multi-rank descent is planned structurally: the bucket tree is
        // the only backend sharing one partition level across all targets,
        // so the decision is recorded (planner log + backend tallies)
        // rather than planned per rank.
        const PlanQuery q{.n = buf.size(), .k = targets.size(), .multi = true};
        record_planned_decision(dev, plan(q), q.n, q.k, ctx.stream());
    }

    const Stamp<MultiSelectResult<T>> stamp(dev);
    if (!targets.empty()) {
        // Independent ranks are independent sub-problems after the first
        // partition level: fan their bucket subtrees over leased streams.
        Result<int> fan_width = try_resolve_stream_count(targets.size());
        if (!fan_width.ok()) return fan_width.status();
        StreamFan fan(dev, fan_width.value(), ctx.stream());
        res.streams_used = fan.count();
        ProgressTally tally;
        Status s = solve(ctx, buf.span(), std::move(targets), DescentPath{}, res, tally,
                         fan.count() > 1 ? &fan : nullptr);
        if (!s.ok()) return s;
        res.resamples = tally.resamples;
        res.fallback_levels = tally.fallback_levels;
    }
    stamp.write(res);
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
