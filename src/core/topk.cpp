#include "core/topk.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "core/backend.hpp"
#include "core/float_order.hpp"
#include "core/histogram.hpp"
#include "core/pipeline.hpp"
#include "core/planner.hpp"
#include "core/sample_select.hpp"

namespace gpusel::core {

namespace detail {

template <typename T>
Result<TopKResult<T>> sample_topk_descend(simt::Device& dev, DataHolder<T> data, std::size_t k,
                                          const SampleSelectConfig& cfg, int stream) {
    SelectionPipeline<T> pipe(dev, cfg, stream);
    const PipelineContext& ctx = pipe.context();
    pipe.reset(std::move(data));

    TopKResult<T> res;
    simt::PooledBuffer<T> acc;
    Status s = with_fault_retry(ctx, [&] { acc = ctx.template scratch<T>(k); });
    if (!s.ok()) return s;

    std::size_t fill = 0;  // next free slot in acc
    // Appends `count` elements of the current buffer, from `from` on, to acc.
    auto take = [&](std::size_t from, std::size_t count, simt::LaunchOrigin origin) {
        Status st = with_fault_retry(ctx, [&] {
            launch_copy<T>(dev, pipe.data(), from, acc.span(), fill, count, origin, cfg.block_dim,
                           ctx.stream());
        });
        if (st.ok()) fill += count;
        return st;
    };

    // The descent tracks the threshold: the element of ascending rank n - k.
    std::size_t rank = pipe.size() - k;
    auto d = pipe.descend(rank, [&](const LevelOutcome<T>& lv,
                                    simt::LaunchOrigin origin) -> Result<bool> {
        // Top elements still to secure from the located bucket once every
        // element of the higher buckets is in.
        const std::size_t needed = pipe.size() - rank - lv.rank_above;
        // Fused filter (Sec. IV-I): target bucket to the back buffer, all
        // higher buckets straight into the accumulator.
        Status st = pipe.try_descend_topk(lv, acc.span(), static_cast<std::int32_t>(fill), origin);
        if (!st.ok()) return st;
        fill += lv.rank_above;
        if (!lv.equality) return true;
        // Every bucket element equals the splitter: take as many as still
        // needed and finish.
        res.threshold = lv.equality_value(lv.bucket);
        st = take(0, needed, origin);
        if (!st.ok()) return st;
        return false;
    });
    if (!d.ok()) return d.status();
    if (d.value().base_case) {
        // The sorted base case holds the threshold at `rank` and the rest of
        // the top-k set above it.
        s = take(rank, pipe.size() - rank, level_origin(d.value().levels));
        if (!s.ok()) return s;
        res.threshold = pipe.value_at(rank);
    }

    if (fill != k) {
        return Status::failure(SelectError::internal, "topk_largest: accumulator fill mismatch");
    }
    res.elements.assign(acc.data(), acc.data() + k);
    res.levels = d.value().levels;
    res.resamples = d.value().tally.resamples;
    res.fallback_levels = d.value().tally.fallback_levels;
    return res;
}

template Result<TopKResult<float>> sample_topk_descend<float>(
    simt::Device&, DataHolder<float>, std::size_t, const SampleSelectConfig&, int);
template Result<TopKResult<double>> sample_topk_descend<double>(
    simt::Device&, DataHolder<double>, std::size_t, const SampleSelectConfig&, int);
template Result<TopKResult<ArgPair>> sample_topk_descend<ArgPair>(
    simt::Device&, DataHolder<ArgPair>, std::size_t, const SampleSelectConfig&, int);

}  // namespace detail

template <typename T>
Result<TopKResult<T>> try_topk_largest(simt::Device& dev, std::span<const T> input, std::size_t k,
                                       const SampleSelectConfig& cfg) {
    if (Status vs = cfg.validate(/*exact=*/true); !vs.ok()) return vs;
    const std::size_t n0 = input.size();
    if (k == 0 || k > n0) {
        return Status::failure(SelectError::rank_out_of_range, "k must be in [1, n]");
    }

    PipelineContext ctx(dev, cfg);
    DataHolder<T> staged;
    Status s = with_fault_retry(ctx, [&] { staged = DataHolder<T>::stage(ctx, input); });
    if (!s.ok()) return s;

    // NaN staging pre-pass: NaNs are the largest keys of the total order,
    // so min(k, nan_count) of them belong to the top-k set outright and
    // the device descent runs over the non-NaN prefix only.
    const std::size_t nan_count = partition_nans_to_back(staged.span());
    std::size_t nan_take = 0;
    if (nan_count > 0) {
        if (cfg.nan_policy == NanPolicy::reject) {
            return Status::failure(SelectError::nan_keys_rejected,
                                   "topk_largest: input contains NaN keys");
        }
        nan_take = nan_count < k ? nan_count : k;
        staged.view(n0 - nan_count);
    }
    const std::size_t kk = k - nan_take;  // non-NaN elements still wanted

    if (kk == 0) {
        // Every requested element falls in the NaN tail; answered at
        // staging without any device work (and without a planner decision,
        // since no backend runs).
        TopKResult<T> res;
        res.nan_count = nan_count;
        res.elements.assign(nan_take, quiet_nan<T>());
        res.threshold = quiet_nan<T>();
        return res;
    }

    PlanQuery q;
    q.n = staged.size();
    q.k = kk;
    q.topk = true;
    q.base_case_size = cfg.base_case_size;
    const PlanDecision plan =
        plan_selection<T>(dev, std::span<const T>(staged.span()), q, cfg.stream);

    const double t0 = dev.elapsed_ns();
    const std::uint64_t l0 = dev.launch_count();
    Result<TopKResult<T>> bres = selection_backend<T>(plan.backend)
                                     .topk_largest(dev, std::move(staged), kk, cfg,
                                                   PipelineContext::kConfigStream);
    if (!bres.ok()) return bres.status();
    TopKResult<T> res = bres.take();
    res.sim_ns = dev.elapsed_ns() - t0;
    res.launches = dev.launch_count() - l0;
    res.nan_count = nan_count;
    if (nan_take > 0) {
        res.elements.insert(res.elements.end(), nan_take, quiet_nan<T>());
    }
    return res;
}

template <typename T>
Result<TopKResult<T>> try_topk_smallest(simt::Device& dev, std::span<const T> input,
                                        std::size_t k, const SampleSelectConfig& cfg) {
    if (Status vs = cfg.validate(/*exact=*/true); !vs.ok()) return vs;
    const std::size_t n = input.size();
    if (k == 0 || k > n) {
        return Status::failure(SelectError::rank_out_of_range, "k must be in [1, n]");
    }

    PipelineContext ctx(dev, cfg);
    DataHolder<T> neg;
    Status s = with_fault_retry(ctx, [&] { neg = DataHolder<T>::stage(ctx, input); });
    if (!s.ok()) return s;

    // NaNs are the *largest* keys of the total order, so the k smallest
    // avoid them until the non-NaN keys run out.  They must be compacted
    // before negation: -NaN is still NaN, so negation cannot reposition
    // them the way it reverses every numeric comparison.
    const std::size_t nan_count = partition_nans_to_back(neg.span());
    if (nan_count > 0 && cfg.nan_policy == NanPolicy::reject) {
        return Status::failure(SelectError::nan_keys_rejected,
                               "topk_smallest: input contains NaN keys");
    }
    const std::size_t n_num = n - nan_count;
    const std::size_t nan_take = k > n_num ? k - n_num : 0;
    const std::size_t kk = k - nan_take;

    const double t0 = dev.elapsed_ns();
    const std::uint64_t l0 = dev.launch_count();

    TopKResult<T> res;
    if (kk > 0) {
        // Negate the numeric prefix on the device (one streaming pass,
        // charged); the launch faults before executing, so a retry never
        // sees half-negated data.
        auto span = neg.span().first(n_num);
        s = with_fault_retry(ctx, [&] {
            const int grid = simt::suggest_grid(dev.arch(), n_num, cfg.block_dim);
            dev.launch("negate",
                       {.grid_dim = grid, .block_dim = cfg.block_dim, .stream = cfg.stream},
                       [span, n_num](simt::BlockCtx& blk) {
                           blk.warp_tiles(n_num,
                                          [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                                              T regs[simt::kWarpSize];
                                              w.load(std::span<const T>(span), base, regs);
                                              for (int l = 0; l < w.lanes(); ++l) {
                                                  regs[l] = -regs[l];
                                              }
                                              w.add_instr(static_cast<std::uint64_t>(w.lanes()));
                                              w.store(span, base, regs);
                                          });
                       });
        });
        if (!s.ok()) return s;
        auto inner = try_topk_largest<T>(dev, std::span<const T>(span), kk, cfg);
        if (!inner.ok()) return inner.status();
        res = inner.take();
        for (auto& v : res.elements) v = -v;
        res.threshold = -res.threshold;
    }
    res.nan_count = nan_count;
    if (nan_take > 0) {
        res.elements.insert(res.elements.end(), nan_take, quiet_nan<T>());
        res.threshold = quiet_nan<T>();  // the k-th smallest falls in the NaN tail
    }
    res.sim_ns = dev.elapsed_ns() - t0;
    res.launches = dev.launch_count() - l0;
    return res;
}

template <typename T>
Result<TopKIndexResult<T>> try_topk_largest_with_indices(simt::Device& dev,
                                                         std::span<const T> input, std::size_t k,
                                                         const SampleSelectConfig& cfg) {
    if (Status vs = cfg.validate(/*exact=*/true); !vs.ok()) return vs;
    const std::size_t n = input.size();
    if (k == 0 || k > n) {
        return Status::failure(SelectError::rank_out_of_range, "k must be in [1, n]");
    }

    PipelineContext ctx(dev, cfg);
    DataHolder<T> data;
    Status s = with_fault_retry(ctx, [&] { data = DataHolder<T>::stage(ctx, input); });
    if (!s.ok()) return s;
    // `data` must keep the input order (indices are positions in it), so
    // NaNs stay in place here; the gather below uses the total order and
    // the threshold selection's own pre-pass handles its consumable copy.
    if (cfg.nan_policy == NanPolicy::reject &&
        count_nan_keys(std::span<const T>(data.span())) > 0) {
        return Status::failure(SelectError::nan_keys_rejected,
                               "topk_largest_with_indices: input contains NaN keys");
    }

    const double t0 = dev.elapsed_ns();
    const std::uint64_t l0 = dev.launch_count();

    // 1. threshold = element of ascending rank n-k (the k-th largest);
    //    selection consumes a device-side copy so `data` stays intact for
    //    the gather pass.
    DataHolder<T> copy;
    s = with_fault_retry(ctx, [&] {
        copy = DataHolder<T>::acquire(ctx, n);
        launch_copy<T>(dev, data.span(), 0, copy.span(), 0, n, simt::LaunchOrigin::host,
                       cfg.block_dim, cfg.stream);
    });
    if (!s.ok()) return s;
    auto sel = try_sample_select_staged<T>(dev, std::move(copy), n - k, cfg);
    if (!sel.ok()) return sel.status();
    const T threshold = sel.value().value;
    const std::size_t nan_count = sel.value().nan_count;

    // 2. how many elements exceed the threshold / equal it (total order:
    //    NaNs count as greater than any numeric threshold, and a NaN
    //    threshold equals exactly the NaN keys).
    auto rq = try_rank_of<T>(dev, std::span<const T>(data.span()), threshold, cfg);
    if (!rq.ok()) return rq.status();
    const std::size_t n_gt = n - rq.value().less - rq.value().equal;
    const std::size_t eq_needed = k - n_gt;

    // 3. gather pass: strictly-greater elements take slots [0, n_gt); the
    //    first eq_needed threshold-equal elements (extraction order) fill
    //    [n_gt, k).
    simt::PooledBuffer<T> out_vals;
    simt::PooledBuffer<std::int32_t> out_idx;
    s = with_fault_retry(ctx, [&] {
        out_vals = ctx.scratch<T>(k);
        out_idx = ctx.scratch<std::int32_t>(k);
        auto cursors = ctx.zeroed_i32(2, simt::LaunchOrigin::device);
        const int grid = simt::suggest_grid(dev.arch(), n, cfg.block_dim, cfg.unroll);
        const auto dspan = std::span<const T>(data.span());
        dev.launch(
            "topk_gather",
            {.grid_dim = grid, .block_dim = cfg.block_dim, .origin = simt::LaunchOrigin::device,
             .unroll = cfg.unroll, .stream = cfg.stream},
            [&, n, threshold, n_gt, eq_needed, dspan](simt::BlockCtx& blk) {
                blk.warp_tiles(n, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                    T elems[simt::kWarpSize];
                    bool gt[simt::kWarpSize];
                    bool eq[simt::kWarpSize];
                    std::int32_t idx32[simt::kWarpSize];
                    const std::int32_t zeros[simt::kWarpSize] = {};
                    std::int32_t off[simt::kWarpSize];
                    w.load(dspan, base, elems);
                    std::uint32_t gt_mask = 0;
                    for (int l = 0; l < w.lanes(); ++l) {
                        gt[l] = total_less(threshold, elems[l]);
                        eq[l] = total_equal(elems[l], threshold);
                        if (gt[l]) gt_mask |= 1u << l;
                        idx32[l] = static_cast<std::int32_t>(base + static_cast<std::size_t>(l));
                    }
                    w.add_instr(2 * static_cast<std::uint64_t>(w.lanes()));

                    w.fetch_add(simt::AtomicSpace::global, cursors.span().subspan(0, 1), zeros,
                                off,
                                /*aggregated=*/true, 1, gt);
                    // Aggregated offsets are lane-ordered consecutive, so
                    // each (values, indices) scatter is a compress-store
                    // pair; the sparse in-tile element reads are charged
                    // as before.
                    if (gt_mask != 0) {
                        const auto slot =
                            static_cast<std::size_t>(off[std::countr_zero(gt_mask)]);
                        w.compress_store(out_vals.span(), slot, gt_mask, elems);
                        w.compress_store(out_idx.span(), slot, gt_mask, idx32);
                        w.block().counters().scattered_bytes_read +=
                            static_cast<std::uint64_t>(std::popcount(gt_mask)) * sizeof(T);
                    }
                    w.fetch_add(simt::AtomicSpace::global, cursors.span().subspan(1, 1), zeros,
                                off,
                                /*aggregated=*/true, 1, eq);
                    // The take set is the offset-capped prefix of the eq
                    // lanes (consecutive offsets again), so it compresses
                    // the same way.
                    std::uint32_t take = 0;
                    for (int l = 0; l < w.lanes(); ++l) {
                        if (eq[l] && static_cast<std::size_t>(off[l]) < eq_needed) {
                            take |= 1u << l;
                        }
                    }
                    if (take != 0) {
                        const std::size_t slot =
                            n_gt + static_cast<std::size_t>(off[std::countr_zero(take)]);
                        w.compress_store(out_vals.span(), slot, take, elems);
                        w.compress_store(out_idx.span(), slot, take, idx32);
                        w.block().counters().scattered_bytes_read +=
                            static_cast<std::uint64_t>(std::popcount(take)) * sizeof(T);
                    }
                });
            });
    });
    if (!s.ok()) return s;

    TopKIndexResult<T> res;
    res.threshold = threshold;
    res.nan_count = nan_count;
    res.values.assign(out_vals.data(), out_vals.data() + k);
    res.indices.resize(k);
    for (std::size_t i = 0; i < k; ++i) res.indices[i] = static_cast<std::size_t>(out_idx[i]);
    res.sim_ns = dev.elapsed_ns() - t0;
    res.launches = dev.launch_count() - l0;
    return res;
}

template <typename T>
Result<TopKBatchResult<T>> try_topk_largest_batch(simt::Device& dev,
                                                  std::span<const TopKBatchProblem<T>> problems,
                                                  const SampleSelectConfig& cfg,
                                                  const BatchOptions& opts) {
    if (problems.empty()) {
        return Status::failure(SelectError::invalid_argument, "topk_batch: empty batch");
    }
    Result<int> fan_width = try_resolve_stream_count(problems.size(), opts.streams);
    if (!fan_width.ok()) return fan_width.status();
    StreamFan fan(dev, fan_width.value(), cfg.stream);

    TopKBatchResult<T> res;
    res.items.reserve(problems.size());
    res.streams_used = fan.count();
    const std::uint64_t l0 = dev.launch_count();
    (void)fan.fork();

    // The host issues the problems in order; each runs the unchanged
    // serial top-k on its lane's stream (via a config copy), so launch
    // sequences per problem are byte-identical to serial calls.
    for (std::size_t i = 0; i < problems.size(); ++i) {
        SampleSelectConfig lane_cfg = cfg;
        lane_cfg.stream = fan.stream(fan.lane_of(i));
        auto sub = try_topk_largest<T>(dev, problems[i].data, problems[i].k, lane_cfg);
        if (!sub.ok()) return sub.status();
        res.items.push_back(sub.take());
    }

    double wall = 0.0;
    double serial = 0.0;
    for (int l = 0; l < fan.count(); ++l) {
        const double busy = dev.stream_clock(fan.stream(l)) - fan.fork_ns();
        if (busy > 0.0) {
            serial += busy;
            wall = std::max(wall, busy);
        }
    }
    fan.join();
    res.wall_ns = wall;
    res.serial_ns = serial;
    res.launches = dev.launch_count() - l0;
    return res;
}

template Result<TopKResult<float>> try_topk_largest<float>(simt::Device&, std::span<const float>,
                                                           std::size_t,
                                                           const SampleSelectConfig&);
template Result<TopKResult<double>> try_topk_largest<double>(simt::Device&,
                                                             std::span<const double>, std::size_t,
                                                             const SampleSelectConfig&);
template Result<TopKResult<float>> try_topk_smallest<float>(simt::Device&, std::span<const float>,
                                                            std::size_t,
                                                            const SampleSelectConfig&);
template Result<TopKResult<double>> try_topk_smallest<double>(simt::Device&,
                                                              std::span<const double>,
                                                              std::size_t,
                                                              const SampleSelectConfig&);
template Result<TopKIndexResult<float>> try_topk_largest_with_indices<float>(
    simt::Device&, std::span<const float>, std::size_t, const SampleSelectConfig&);
template Result<TopKIndexResult<double>> try_topk_largest_with_indices<double>(
    simt::Device&, std::span<const double>, std::size_t, const SampleSelectConfig&);
template Result<TopKBatchResult<float>> try_topk_largest_batch<float>(
    simt::Device&, std::span<const TopKBatchProblem<float>>, const SampleSelectConfig&,
    const BatchOptions&);
template Result<TopKBatchResult<double>> try_topk_largest_batch<double>(
    simt::Device&, std::span<const TopKBatchProblem<double>>, const SampleSelectConfig&,
    const BatchOptions&);

}  // namespace gpusel::core
