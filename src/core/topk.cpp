#include "core/topk.hpp"

#include <utility>

#include "core/backend.hpp"
#include "core/float_order.hpp"
#include "core/opening.hpp"
#include "core/pipeline.hpp"
#include "core/planner.hpp"

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

namespace {

/// The top-k range check: 0 < k <= n.
Status check_k(std::size_t n, std::size_t k) {
    if (k == 0 || k > n) {
        return Status::failure(SelectError::rank_out_of_range, "k must be in [1, n]");
    }
    return Status::success();
}

/// The k largest elements of an opened, NaN-free holder (0 < k <= size),
/// which is consumed: plans the backend (host-side, no launches), then
/// runs and stamps it.
template <typename T>
Result<TopKResult<T>> topk_staged(simt::Device& dev, DataHolder<T> data, std::size_t k,
                                  const SampleSelectConfig& cfg) {
    const PlanDecision plan = plan_selection(
        dev, {.n = data.size(), .k = k, .base_case_size = cfg.base_case_size}, cfg.stream);

    const Stamp<TopKResult<T>> stamp(dev);
    Result<TopKResult<T>> res = selection_backend<T>(plan.backend)
                                    .topk_largest(dev, std::move(data), k, cfg,
                                                  PipelineContext::kConfigStream);
    if (res.ok()) stamp.write(res.value());
    return res;
}

}  // namespace

template <typename T>
Result<TopKResult<T>> try_topk_largest(simt::Device& dev, std::span<const T> input, std::size_t k,
                                       const SampleSelectConfig& cfg) {
    Result<Opened<T>> o =
        try_open<T>(PipelineContext(dev, cfg), input, check_k(input.size(), k));
    if (!o.ok()) return o.status();
    Opened<T>& op = o.value();

    // NaNs are the largest keys of the total order, so min(k, nan_count)
    // of them belong to the top-k set outright and the device descent runs
    // over the non-NaN prefix only.
    const std::size_t nan_take = op.nan_count < k ? op.nan_count : k;
    const std::size_t kk = k - nan_take;  // non-NaN elements still wanted
    TopKResult<T> res;
    if (kk == 0) {
        // Every requested element falls in the NaN tail; answered at
        // staging without any device work (and without a planner decision,
        // since no backend runs).
        res.threshold = quiet_nan<T>();
    } else {
        Result<TopKResult<T>> bres = topk_staged<T>(dev, std::move(op.data), kk, cfg);
        if (!bres.ok()) return bres.status();
        res = bres.take();
    }
    res.nan_count = op.nan_count;
    res.elements.insert(res.elements.end(), nan_take, quiet_nan<T>());
    return res;
}

template <typename T>
Result<TopKResult<T>> try_topk_smallest(simt::Device& dev, std::span<const T> input,
                                        std::size_t k, const SampleSelectConfig& cfg) {
    // NaNs are the *largest* keys of the total order, so the k smallest
    // avoid them until the non-NaN keys run out.  The opening compacts them
    // before negation: -NaN is still NaN, so negation cannot reposition
    // them the way it reverses every numeric comparison.
    const PipelineContext ctx(dev, cfg);
    Result<Opened<T>> o = try_open<T>(ctx, input, check_k(input.size(), k));
    if (!o.ok()) return o.status();
    Opened<T>& op = o.value();
    const std::size_t n_num = op.data.size();
    const std::size_t nan_take = k > n_num ? k - n_num : 0;
    const std::size_t kk = k - nan_take;

    const Stamp<TopKResult<T>> stamp(dev);
    TopKResult<T> res;
    if (kk > 0) {
        // Negate the numeric prefix on the device (one streaming pass,
        // charged); the launch faults before executing, so a retry never
        // sees half-negated data.
        const std::span<T> span = op.data.span();
        Status s = with_fault_retry(ctx, [&] {
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
        // The k largest negated keys are the k smallest keys.
        Result<TopKResult<T>> inner = topk_staged<T>(dev, std::move(op.data), kk, cfg);
        if (!inner.ok()) return inner.status();
        res = inner.take();
        for (auto& v : res.elements) v = -v;
        res.threshold = -res.threshold;
    }
    res.nan_count = op.nan_count;
    if (nan_take > 0) {
        res.elements.insert(res.elements.end(), nan_take, quiet_nan<T>());
        res.threshold = quiet_nan<T>();  // the k-th smallest falls in the NaN tail
    }
    stamp.write(res);
    return res;
}

template <typename T>
Result<TopKBatchResult<T>> try_topk_largest_batch(simt::Device& dev,
                                                  std::span<const TopKBatchProblem<T>> problems,
                                                  const SampleSelectConfig& cfg,
                                                  const BatchOptions& opts) {
    if (Status s = check_config(PipelineContext(dev, cfg)); !s.ok()) return s;
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

    const StreamFan::Overlap busy = fan.overlap();
    fan.join();
    res.wall_ns = busy.wall_ns;
    res.serial_ns = busy.serial_ns;
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
template Result<TopKBatchResult<float>> try_topk_largest_batch<float>(
    simt::Device&, std::span<const TopKBatchProblem<float>>, const SampleSelectConfig&,
    const BatchOptions&);
template Result<TopKBatchResult<double>> try_topk_largest_batch<double>(
    simt::Device&, std::span<const TopKBatchProblem<double>>, const SampleSelectConfig&,
    const BatchOptions&);

}  // namespace gpusel::core
