#include "core/sample_sort.hpp"

#include "bitonic/bitonic.hpp"
#include "core/float_order.hpp"
#include "core/pipeline.hpp"
#include "simt/timing.hpp"

namespace gpusel::core {

namespace {

/// Scatters every element into its bucket's contiguous output range:
/// out[prefix[bucket] + block_base + local] = element.  Per-block shared
/// cursors are seeded from the reduce_offsets result; this is the filter
/// kernel generalized to all buckets at once (classic sample-sort scatter).
template <typename T>
void scatter_all_kernel(simt::Device& dev, std::span<const T> data,
                        std::span<const std::uint8_t> oracles,
                        std::span<const std::int32_t> block_offsets,
                        std::span<const std::int32_t> prefix, std::span<T> out,
                        const SearchTree<T>& tree, const SampleSelectConfig& cfg,
                        simt::LaunchOrigin origin, int grid_dim) {
    const std::size_t n = data.size();
    const auto b = static_cast<std::size_t>(tree.num_buckets);
    dev.launch(
        "scatter_all",
        {.grid_dim = grid_dim, .block_dim = cfg.block_dim, .origin = origin,
         .unroll = cfg.unroll, .stream = cfg.stream},
        [&, n, b](simt::BlockCtx& blk) {
            auto cursors = blk.shared_array<std::int32_t>(b);
            const auto base_row =
                static_cast<std::size_t>(blk.block_idx()) * b;
            for (std::size_t i = 0; i < b; ++i) {
                blk.shared_st(cursors, i,
                              blk.ld(prefix, i) + blk.ld(block_offsets, base_row + i));
            }
            blk.charge_global_read(2 * b * sizeof(std::int32_t));
            blk.charge_shared(b * sizeof(std::int32_t));
            blk.sync();

            blk.warp_tiles(n, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                std::uint8_t orc[simt::kWarpSize];
                T elems[simt::kWarpSize];
                std::int32_t which[simt::kWarpSize];
                std::int32_t off[simt::kWarpSize];
                w.load(oracles, base, orc);
                w.load(data, base, elems);
                for (int l = 0; l < w.lanes(); ++l) which[l] = orc[l];
                w.fetch_add(simt::AtomicSpace::shared, cursors, which, off,
                            cfg.warp_aggregation, tree.height);
                for (int l = 0; l < w.lanes(); ++l) {
                    blk.st(out, static_cast<std::size_t>(off[l]), elems[l]);
                }
                // bucket-scattered writes
                w.block().counters().scattered_bytes_written +=
                    static_cast<std::uint64_t>(w.lanes()) * sizeof(T);
            });
        });
}

/// Sorts `data` ascending in place, using `scratch` (same size) as the
/// scatter target of each level.  `path` is the guaranteed-progress state
/// of this segment's path (try_level_step): a stalled level re-sorts the
/// whole scattered copy one level deeper, where it re-samples with the
/// depth salt or, past the budget, runs the fallback level.
template <typename T>
Status sort_segment(const PipelineContext& ctx, std::span<T> data, std::span<T> scratch,
                    DescentPath path, SortResult<T>& res, ProgressTally& tally) {
    simt::Device& dev = ctx.dev();
    const SampleSelectConfig& cfg = ctx.cfg();
    const std::size_t n = data.size();
    const std::size_t depth = path.levels;
    res.max_depth = std::max(res.max_depth, depth);
    const auto origin = level_origin(depth);

    if (n <= cfg.base_case_size) {
        return with_fault_retry(ctx, [&] { sort_base_case<T>(ctx, data, origin); });
    }

    // Every-bucket level: rank 0 is located only for its prefix table.
    auto lvres = try_level_step<T>(ctx, std::span<const T>(data), /*rank=*/0, origin,
                                   depth * 977, path, tally);
    if (!lvres.ok()) return lvres.status();
    const LevelOutcome<T> lv = lvres.take();
    const auto b = static_cast<std::size_t>(lv.tree.num_buckets);
    const auto prefix = lv.prefix_span();

    Status s = with_fault_retry(ctx, [&] {
        scatter_all_kernel<T>(dev, std::span<const T>(data), lv.oracles.span(),
                              lv.block_counts.span(), prefix, scratch, lv.tree, cfg, origin,
                              lv.grid);
    });
    if (!s.ok()) return s;
    auto copy_back = [&] {
        return with_fault_retry(ctx, [&] {
            launch_copy<T>(dev, std::span<const T>(scratch), 0, data, 0, n, origin,
                           cfg.block_dim, cfg.stream);
        });
    };

    if (path.stalled()) {
        // Degenerate sample: the scatter moved every element into one
        // bucket, so sort the whole scattered copy one level deeper.
        s = sort_segment(ctx, scratch, data, path, res, tally);
        if (!s.ok()) return s;
        return copy_back();
    }

    // Small child buckets are sorted by ONE batched bitonic launch (one
    // block per bucket); only oversized buckets recurse.
    std::vector<bitonic::Segment> small;
    small.reserve(b);
    for (std::size_t i = 0; i < b; ++i) {
        const auto lo = static_cast<std::size_t>(prefix[i]);
        const auto hi = static_cast<std::size_t>(prefix[i + 1]);
        const std::size_t len = hi - lo;
        if (len <= 1 || lv.tree.equality[i]) continue;  // equality buckets are sorted
        if (len <= bitonic::kMaxSortSize) {
            small.push_back({lo, len});
        } else {
            s = sort_segment(ctx, scratch.subspan(lo, len), data.subspan(lo, len), path, res,
                             tally);
            if (!s.ok()) return s;
        }
    }
    if (!small.empty()) {
        res.max_depth = std::max(res.max_depth, depth + 1);
        s = with_fault_retry(ctx, [&] {
            bitonic::batched_sort_on_device<T>(dev, scratch, small, origin, cfg.block_dim,
                                               cfg.stream);
        });
        if (!s.ok()) return s;
    }
    return copy_back();
}

}  // namespace

template <typename T>
Result<SortResult<T>> try_sample_sort(simt::Device& dev, std::span<const T> input,
                                      const SampleSelectConfig& cfg) {
    // The scatter needs per-block offsets, so sorting uses the
    // shared-atomic hierarchy regardless of cfg.atomic_space.
    SampleSelectConfig sort_cfg = cfg;
    sort_cfg.atomic_space = simt::AtomicSpace::shared;
    if (Status vs = sort_cfg.validate(/*exact=*/true); !vs.ok()) return vs;

    const std::size_t n = input.size();
    PipelineContext ctx(dev, sort_cfg);
    DataHolder<T> buf;
    DataHolder<T> scratch;
    Status s = with_fault_retry(ctx, [&] {
        buf = DataHolder<T>::stage(ctx, input);
        scratch = DataHolder<T>::acquire(ctx, n);
    });
    if (!s.ok()) return s;

    SortResult<T> res;
    // NaN staging pre-pass: NaN keys are the largest in the total order, so
    // the sorted output is the sorted numeric prefix followed by the NaN
    // tail the partition already formed.
    res.nan_count = partition_nans_to_back(buf.span());
    if (res.nan_count > 0 && sort_cfg.nan_policy == NanPolicy::reject) {
        return Status::failure(SelectError::nan_keys_rejected,
                               "sample_sort: input contains NaN keys");
    }
    const std::size_t n_num = n - res.nan_count;

    const double t0 = dev.elapsed_ns();
    const std::uint64_t l0 = dev.launch_count();
    if (n_num > 0) {
        ProgressTally tally;
        s = sort_segment<T>(ctx, buf.span().subspan(0, n_num), scratch.span().subspan(0, n_num),
                            DescentPath{}, res, tally);
        if (!s.ok()) return s;
        res.resamples = tally.resamples;
        res.fallback_levels = tally.fallback_levels;
    }
    res.sim_ns = dev.elapsed_ns() - t0;
    res.launches = dev.launch_count() - l0;
    const auto sorted = buf.span();
    res.sorted.assign(sorted.begin(), sorted.end());
    return res;
}

template Result<SortResult<float>> try_sample_sort<float>(simt::Device&, std::span<const float>,
                                                          const SampleSelectConfig&);
template Result<SortResult<double>> try_sample_sort<double>(simt::Device&,
                                                            std::span<const double>,
                                                            const SampleSelectConfig&);

}  // namespace gpusel::core
