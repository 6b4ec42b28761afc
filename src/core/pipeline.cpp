#include "core/pipeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "bitonic/bitonic.hpp"
#include "core/count_kernel.hpp"
#include "core/float_order.hpp"
#include "core/filter_kernel.hpp"
#include "core/reduce_kernel.hpp"
#include "core/sample_kernel.hpp"
#include "simt/timing.hpp"

namespace gpusel::core {

PipelinePlan PipelinePlan::make(const simt::Device& dev, std::size_t n,
                                const SampleSelectConfig& cfg, bool write_oracles) {
    PipelinePlan p;
    p.n = n;
    p.num_buckets = static_cast<std::size_t>(cfg.num_buckets);
    p.grid = simt::suggest_grid(dev.arch(), n, cfg.block_dim, cfg.unroll);
    p.shared_mode = cfg.atomic_space == simt::AtomicSpace::shared;
    p.write_oracles = write_oracles;
    return p;
}

simt::PooledBuffer<std::int32_t> PipelineContext::zeroed_i32(std::size_t n,
                                                             simt::LaunchOrigin origin) const {
    auto buf = scratch<std::int32_t>(n);
    launch_memset32(dev(), buf.span(), origin, stream());
    return buf;
}

template <typename T>
T LevelOutcome<T>::equality_value(std::int32_t b) const {
    const auto ub = static_cast<std::size_t>(b);
    if (b <= 0 || ub >= tree.equality.size() || tree.equality[ub] == 0) {
        throw std::logic_error(
            "equality_value: bucket has no left splitter or is not an equality bucket");
    }
    return tree.splitters[ub - 1];
}

template <typename T>
LevelOutcome<T> finish_level(const PipelineContext& ctx, std::span<const T> data,
                             std::size_t rank, simt::LaunchOrigin origin, SearchTree<T> tree,
                             const LevelOptions& opt, std::span<std::int32_t> totals) {
    simt::Device& dev = ctx.dev();
    const SampleSelectConfig& cfg = ctx.cfg();
    const std::size_t n = data.size();
    const auto num_buckets = static_cast<std::size_t>(tree.num_buckets);
    const bool shared_mode = ctx.shared_mode();
    const int grid = simt::suggest_grid(dev.arch(), n, cfg.block_dim, cfg.unroll);

    LevelOutcome<T> lv;
    lv.grid = grid;
    lv.tree = std::move(tree);

    if (opt.write_oracles) lv.oracles = ctx.scratch<std::uint8_t>(n);
    if (totals.empty()) {
        lv.totals = ctx.scratch<std::int32_t>(num_buckets);
        totals = lv.totals.span();
    } else if (totals.size() != num_buckets) {
        throw std::invalid_argument("finish_level: totals row size mismatch");
    } else {
        lv.totals_row = totals;
    }
    if (shared_mode) {
        lv.block_counts = ctx.scratch<std::int32_t>(static_cast<std::size_t>(grid) * num_buckets);
    } else {
        launch_memset32(dev, totals, origin, ctx.stream());
    }
    // The level's last counting kernel (the reduce in shared mode, the
    // count in global mode) locates the rank in its grid epilogue.
    RankLocate loc;
    if (opt.locate) {
        lv.prefix = ctx.scratch<std::int32_t>(num_buckets + 1);
        loc = {.prefix = lv.prefix.span(), .rank = rank};
    }
    RankLocate* const locate = opt.locate ? &loc : nullptr;

    const int used_grid = count_kernel<T>(dev, data, lv.tree, lv.oracles.span(), totals,
                                          lv.block_counts.span(), cfg, origin, ctx.stream(),
                                          shared_mode ? nullptr : locate);
    if (used_grid != grid) throw std::logic_error("pipeline: grid sizing mismatch");

    if (shared_mode) {
        reduce_kernel(dev, lv.block_counts.span(), grid, static_cast<int>(num_buckets), totals,
                      opt.keep_block_offsets, origin, ctx.stream(), locate);
    }

    if (opt.locate) {
        lv.bucket = loc.bucket;
        const auto ub = static_cast<std::size_t>(lv.bucket);
        lv.equality = lv.tree.equality[ub] != 0;
        lv.bucket_size = static_cast<std::size_t>(totals[ub]);
        lv.rank_offset = static_cast<std::size_t>(lv.prefix[ub]);
        lv.rank_above = n - static_cast<std::size_t>(lv.prefix[ub + 1]);
    }
    return lv;
}

namespace {

/// The pivot probe's body, run by one block: the median of 9 elements at
/// fixed strided positions (charged like the sampler's gather, Sec. IV-D
/// pivot selection).  No randomness: the same buffer always yields the
/// same pivot.
template <typename T>
T probe_pivot(simt::BlockCtx& blk, std::span<const T> data) {
    const std::size_t n = data.size();
    constexpr std::size_t kProbes = 9;
    T probes[kProbes];
    for (std::size_t i = 0; i < kProbes; ++i) {
        // Odd-numerator strides cover the whole range without touching the
        // (possibly adversarial) extremes.
        probes[i] = blk.ld(data, (2 * i + 1) * n / (2 * kProbes));
    }
    // Total order: identical to `<` on the NaN-free data the front-ends
    // stage, but safe if a host caller skips the NaN pre-pass.
    std::sort(std::begin(probes), std::end(probes), [](T a, T b) { return total_less(a, b); });
    // 9 scattered reads, a fixed sorting network, one publish.
    blk.counters().scattered_bytes_read += kProbes * sizeof(T);
    blk.charge_instr(kProbes * kProbes);
    blk.charge_global_write(sizeof(T));
    return probes[kProbes / 2];
}

/// The deterministic guaranteed-progress pivot, fetched by a tiny
/// single-block kernel.
template <typename T>
T deterministic_pivot(simt::Device& dev, std::span<const T> data, const SampleSelectConfig& cfg,
                      simt::LaunchOrigin origin, int stream) {
    T pivot{};
    dev.launch("pivot_sample",
               {.grid_dim = 1, .block_dim = cfg.block_dim, .origin = origin, .unroll = 1,
                .stream = stream},
               [&](simt::BlockCtx& blk) { pivot = probe_pivot<T>(blk, data); });
    return pivot;
}

/// One warp tile of the device copy: dst[dst_base + base + l] =
/// src[src_base + base + l] for the tile's lanes.
template <typename T>
void copy_tile(simt::WarpCtx& w, std::span<const T> src, std::size_t src_base, std::span<T> dst,
               std::size_t dst_base, std::size_t base) {
    T regs[simt::kWarpSize];
    w.load(src, src_base + base, regs);
    w.store(dst, dst_base + base, regs);
}

/// The deterministic guaranteed-progress level, under with_fault_retry:
/// pivot = median of 9 deterministically strided elements, splitters
/// {p, p, p} -> 4 buckets: {< p} split in two, the equality bucket {== p}
/// (non-empty: the pivot came from the data), and {> p}, so the
/// non-equality buckets always shrink.  No randomness, so it cannot stall
/// twice the same way and a retry reruns it verbatim.  A `drawn`
/// tripartition stands in for the first attempt's pivot launch.
template <typename T>
Result<LevelOutcome<T>> try_run_pivot_level(const PipelineContext& ctx, std::span<const T> data,
                                            std::size_t rank, simt::LaunchOrigin origin,
                                            std::optional<SearchTree<T>> drawn) {
    LevelOutcome<T> lv;
    Status s = with_fault_retry(ctx, [&] {
        SearchTree<T> tree;
        if (drawn) {
            tree = *std::exchange(drawn, std::nullopt);
        } else {
            const T p = deterministic_pivot<T>(ctx.dev(), data, ctx.cfg(), origin, ctx.stream());
            tree = SearchTree<T>::build({p, p, p});
        }
        lv = finish_level<T>(ctx, data, rank, origin, std::move(tree));
    });
    if (!s.ok()) return s;
    return lv;
}

}  // namespace

template <typename T>
Result<LevelOutcome<T>> try_run_bucket_level(const PipelineContext& ctx, std::span<const T> data,
                                             std::size_t rank, simt::LaunchOrigin origin,
                                             std::uint64_t salt, const LevelOptions& opt,
                                             std::optional<SearchTree<T>> drawn) {
    LevelOutcome<T> lv;
    std::uint64_t attempt = 0;
    Status s = with_fault_retry(ctx, [&] {
        // Retries re-sample with a fresh salt: if the fault hit mid-level
        // the partial work is discarded and the level reruns end to end.
        const std::uint64_t attempt_salt = salt + attempt++ * std::uint64_t{0x9e3779b9};
        auto tree = drawn ? *std::exchange(drawn, std::nullopt)
                          : sample_splitters<T>(ctx.dev(), data, ctx.cfg(), origin, attempt_salt,
                                                ctx.stream());
        lv = finish_level<T>(ctx, data, rank, origin, std::move(tree), opt);
    });
    if (!s.ok()) return s;
    return lv;
}

template <typename T>
Result<LevelOutcome<T>> try_level_step(const PipelineContext& ctx, std::span<const T> data,
                                       std::size_t rank, simt::LaunchOrigin origin,
                                       std::uint64_t salt, DescentPath& path,
                                       ProgressTally& tally, std::optional<SearchTree<T>> drawn) {
    const SampleSelectConfig& cfg = ctx.cfg();
    // Hard depth cap: with strict shrink guaranteed below, genuine inputs
    // terminate in O(log n) levels; the cap makes that provable even under
    // invariant-breaking bugs.
    if (path.levels >= static_cast<std::size_t>(cfg.max_levels)) {
        return Status::failure(SelectError::depth_exceeded,
                               "sample descent: max_levels bucketing levels exceeded");
    }
    ++path.levels;

    // Stalls are resampled with the caller's fresh salt max_stalled_levels
    // times; past that budget the path runs the deterministic fallback.
    const bool fallback =
        cfg.force_fallback || path.stalls > static_cast<std::size_t>(cfg.max_stalled_levels);
    Result<LevelOutcome<T>> lv =
        fallback ? try_run_pivot_level<T>(ctx, data, rank, origin, std::move(drawn))
                 : try_run_bucket_level<T>(ctx, data, rank, origin, salt, {}, std::move(drawn));
    if (!lv.ok()) return lv.status();
    if (fallback) {
        ++tally.fallback_levels;
        ++ctx.dev().robustness().fallback_levels;
    }

    if (lv.value().equality || lv.value().bucket_size < data.size()) {
        // Progress (an equality bucket ends the search for its ranks).
        // The stall was a property of the old buffer: sampled levels resume
        // below, their splits are much better than the tripartition's.
        path.stalls = 0;
        return lv;
    }
    // Stalled level: a pathological sample left the located bucket at full
    // size.  The tripartition tree's equality bucket is non-empty by
    // construction, so a stalled fallback level means broken invariants,
    // not bad luck.
    if (fallback) {
        return Status::failure(
            SelectError::no_progress,
            "sample descent: deterministic fallback level failed to shrink the bucket");
    }
    ++tally.resamples;
    ++ctx.dev().robustness().resamples;
    if (++path.stalls == static_cast<std::size_t>(cfg.max_stalled_levels) + 1) {
        ++ctx.dev().robustness().fallbacks;
    }
    return lv;
}

template <typename T>
void filter_bucket(const PipelineContext& ctx, std::span<const T> data, const LevelOutcome<T>& lv,
                   std::int32_t bucket, std::span<T> out, simt::LaunchOrigin origin,
                   const simt::Device::KernelFn& epilogue) {
    simt::Device& dev = ctx.dev();
    const SampleSelectConfig& cfg = ctx.cfg();
    simt::PooledBuffer<std::int32_t> cursor;
    if (!ctx.shared_mode()) cursor = ctx.zeroed_i32(1, origin);
    // Bucket count comes from the level's own tree: cfg.num_buckets for a
    // sampled level, 4 for the deterministic fallback tripartition.
    filter_kernel<T>(dev, data, lv.oracles.span(), bucket, out, lv.block_counts.span(),
                     lv.tree.num_buckets, cursor.span(), cfg, origin, lv.grid, ctx.stream(),
                     epilogue);
}

template <typename T>
void filter_topk(const PipelineContext& ctx, std::span<const T> data, const LevelOutcome<T>& lv,
                 std::span<T> out, std::span<T> acc, std::int32_t acc_fill,
                 simt::LaunchOrigin origin, const simt::Device::KernelFn& epilogue) {
    simt::Device& dev = ctx.dev();
    const SampleSelectConfig& cfg = ctx.cfg();
    auto cursors = ctx.scratch<std::int32_t>(2);
    // Cursor seeding is fused into the controller step in a real
    // implementation; the two scalar writes are not charged.
    cursors[0] = 0;
    cursors[1] = acc_fill;
    filter_fused_topk_kernel<T>(dev, data, lv.oracles.span(), lv.bucket, out, acc,
                                lv.block_counts.span(), lv.tree.num_buckets, cursors.span(), cfg,
                                origin, lv.grid, ctx.stream(), epilogue);
}

template <typename T>
simt::Device::KernelFn LevelTail<T>::epilogue(std::span<T> bucket) {
    const SampleSelectConfig& cfg = ctx_->cfg();
    if (sorts_) {
        return [bucket, take = take_](simt::BlockCtx& blk) {
            bitonic::sort_small_kernel<T>(blk, bucket, bucket.size());
            const std::span<const T> top = bucket.last(take.size());
            blk.warp_tiles_local(take.size(), [&](simt::WarpCtx& w, std::size_t base,
                                                  std::size_t) {
                copy_tile<T>(w, top, 0, take, 0, base);
            });
        };
    }
    if (cfg.force_fallback) {
        splitters_.assign(3, T{});
        return [this, bucket](simt::BlockCtx& blk) {
            std::fill(splitters_.begin(), splitters_.end(),
                      probe_pivot<T>(blk, std::span<const T>(bucket)));
        };
    }
    splitters_.assign(static_cast<std::size_t>(cfg.num_buckets) - 1, T{});
    return [this, bucket, &cfg](simt::BlockCtx& blk) {
        draw_splitters<T>(blk, bucket, cfg, salt_, splitters_);
    };
}

template <typename T>
std::optional<SearchTree<T>> LevelTail<T>::drawn_tree() {
    if (sorts_) return std::nullopt;
    return SearchTree<T>::build(std::move(splitters_));
}

template <typename T>
void launch_copy(simt::Device& dev, std::span<const T> src, std::size_t src_base,
                 std::span<T> dst, std::size_t dst_base, std::size_t count,
                 simt::LaunchOrigin origin, int block_dim, int stream) {
    if (count == 0) return;
    const int grid = simt::suggest_grid(dev.arch(), count, block_dim);
    dev.launch("copy",
               {.grid_dim = grid, .block_dim = block_dim, .origin = origin, .stream = stream},
               [=](simt::BlockCtx& blk) {
                   blk.warp_tiles(count, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                       copy_tile<T>(w, src, src_base, dst, dst_base, base);
                   });
               });
}

template <typename T>
void sort_base_case(const PipelineContext& ctx, std::span<T> data, simt::LaunchOrigin origin) {
    bitonic::sort_on_device<T>(ctx.dev(), data, data.size(), origin, ctx.cfg().block_dim,
                               ctx.stream());
}

template struct LevelOutcome<float>;
template struct LevelOutcome<double>;
template class LevelTail<float>;
template class LevelTail<double>;
template class LevelTail<ArgPair>;
template LevelOutcome<float> finish_level<float>(const PipelineContext&, std::span<const float>,
                                                 std::size_t, simt::LaunchOrigin,
                                                 SearchTree<float>, const LevelOptions&,
                                                 std::span<std::int32_t>);
template LevelOutcome<double> finish_level<double>(const PipelineContext&, std::span<const double>,
                                                   std::size_t, simt::LaunchOrigin,
                                                   SearchTree<double>, const LevelOptions&,
                                                   std::span<std::int32_t>);
template Result<LevelOutcome<float>> try_level_step<float>(
    const PipelineContext&, std::span<const float>, std::size_t, simt::LaunchOrigin, std::uint64_t,
    DescentPath&, ProgressTally&, std::optional<SearchTree<float>>);
template Result<LevelOutcome<double>> try_level_step<double>(
    const PipelineContext&, std::span<const double>, std::size_t, simt::LaunchOrigin, std::uint64_t,
    DescentPath&, ProgressTally&, std::optional<SearchTree<double>>);
template Result<LevelOutcome<ArgPair>> try_level_step<ArgPair>(
    const PipelineContext&, std::span<const ArgPair>, std::size_t, simt::LaunchOrigin,
    std::uint64_t, DescentPath&, ProgressTally&, std::optional<SearchTree<ArgPair>>);
template Result<LevelOutcome<float>> try_run_bucket_level<float>(
    const PipelineContext&, std::span<const float>, std::size_t, simt::LaunchOrigin, std::uint64_t,
    const LevelOptions&, std::optional<SearchTree<float>>);
template Result<LevelOutcome<double>> try_run_bucket_level<double>(
    const PipelineContext&, std::span<const double>, std::size_t, simt::LaunchOrigin, std::uint64_t,
    const LevelOptions&, std::optional<SearchTree<double>>);
template void filter_bucket<float>(
    const PipelineContext&, std::span<const float>, const LevelOutcome<float>&, std::int32_t,
    std::span<float>, simt::LaunchOrigin, const simt::Device::KernelFn&);
template void filter_bucket<double>(
    const PipelineContext&, std::span<const double>, const LevelOutcome<double>&, std::int32_t,
    std::span<double>, simt::LaunchOrigin, const simt::Device::KernelFn&);
template void filter_topk<float>(
    const PipelineContext&, std::span<const float>, const LevelOutcome<float>&, std::span<float>,
    std::span<float>, std::int32_t, simt::LaunchOrigin, const simt::Device::KernelFn&);
template void filter_topk<double>(
    const PipelineContext&, std::span<const double>, const LevelOutcome<double>&, std::span<double>,
    std::span<double>, std::int32_t, simt::LaunchOrigin, const simt::Device::KernelFn&);
template void launch_copy<float>(simt::Device&, std::span<const float>, std::size_t,
                                 std::span<float>, std::size_t, std::size_t, simt::LaunchOrigin,
                                 int, int);
template void launch_copy<double>(simt::Device&, std::span<const double>, std::size_t,
                                  std::span<double>, std::size_t, std::size_t, simt::LaunchOrigin,
                                  int, int);
template void sort_base_case<float>(const PipelineContext&, std::span<float>, simt::LaunchOrigin);
template void sort_base_case<double>(const PipelineContext&, std::span<double>,
                                     simt::LaunchOrigin);
template struct LevelOutcome<ArgPair>;
template LevelOutcome<ArgPair> finish_level<ArgPair>(const PipelineContext&,
                                                     std::span<const ArgPair>, std::size_t,
                                                     simt::LaunchOrigin, SearchTree<ArgPair>,
                                                     const LevelOptions&,
                                                     std::span<std::int32_t>);
template Result<LevelOutcome<ArgPair>> try_run_bucket_level<ArgPair>(
    const PipelineContext&, std::span<const ArgPair>, std::size_t, simt::LaunchOrigin,
    std::uint64_t, const LevelOptions&, std::optional<SearchTree<ArgPair>>);
template void filter_bucket<ArgPair>(
    const PipelineContext&, std::span<const ArgPair>, const LevelOutcome<ArgPair>&, std::int32_t,
    std::span<ArgPair>, simt::LaunchOrigin, const simt::Device::KernelFn&);
template void filter_topk<ArgPair>(
    const PipelineContext&, std::span<const ArgPair>, const LevelOutcome<ArgPair>&,
    std::span<ArgPair>, std::span<ArgPair>, std::int32_t, simt::LaunchOrigin,
    const simt::Device::KernelFn&);
template void launch_copy<ArgPair>(simt::Device&, std::span<const ArgPair>, std::size_t,
                                   std::span<ArgPair>, std::size_t, std::size_t,
                                   simt::LaunchOrigin, int, int);
template void sort_base_case<ArgPair>(const PipelineContext&, std::span<ArgPair>,
                                      simt::LaunchOrigin);

}  // namespace gpusel::core
