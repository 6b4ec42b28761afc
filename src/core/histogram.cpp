#include "core/histogram.hpp"

#include <utility>

#include "core/float_order.hpp"
#include "core/opening.hpp"
#include "core/pipeline.hpp"
#include "simt/timing.hpp"

namespace gpusel::core {

template <typename T>
Result<EquiDepthHistogram<T>> try_equi_depth_histogram(simt::Device& dev, std::span<const T> data,
                                                       const SampleSelectConfig& cfg) {
    const std::size_t n = data.size();
    const PipelineContext ctx(dev, cfg);
    // NaN keys cannot enter the count kernel (its tree traversal assumes
    // the total order).  They belong in the last bucket -- where
    // find_bucket sends a NaN probe -- so the level runs over the NaN-free
    // prefix and the NaN count is added to that bucket afterwards.
    Result<Opened<T>> o = try_open<T>(
        ctx, data,
        n == 0 ? Status::failure(SelectError::empty_input, "histogram of an empty dataset")
               : Status::success(),
        /*exact=*/false);
    if (!o.ok()) return o.status();
    const std::size_t nan_count = o.value().nan_count;
    const auto b = static_cast<std::size_t>(cfg.num_buckets);
    const auto origin = simt::LaunchOrigin::host;

    EquiDepthHistogram<T> h;
    h.n = n;
    const Stamp<EquiDepthHistogram<T>> stamp(dev);

    // Count-only pipeline level: no oracles and no per-block offsets.  Its
    // locate epilogue at rank 0 writes the cumulative counts; the located
    // bucket is unused.
    auto lvres = try_run_bucket_level<T>(
        ctx, std::span<const T>(o.value().data.span()), /*rank=*/0, origin, /*salt=*/0,
        {.write_oracles = false, .keep_block_offsets = false, .locate = true});
    if (!lvres.ok()) return lvres.status();
    const LevelOutcome<T> lv = lvres.take();
    h.tree = lv.tree;
    h.boundaries = h.tree.splitters;
    const auto totals = lv.totals_span();
    const auto prefix = lv.prefix_span();

    h.counts.resize(b);
    h.cumulative.resize(b + 1);
    for (std::size_t i = 0; i < b; ++i) {
        h.counts[i] = totals[i];
        h.cumulative[i] = prefix[i];
    }
    h.counts[b - 1] += static_cast<std::int64_t>(nan_count);
    h.cumulative[b] = static_cast<std::int64_t>(n);

    stamp.write(h);
    return h;
}

template <typename T>
Result<RankQueryResult<T>> try_rank_of(simt::Device& dev, std::span<const T> data, T v,
                                       const SampleSelectConfig& cfg) {
    const PipelineContext ctx(dev, cfg);
    if (Status s = check_config(ctx, /*exact=*/false); !s.ok()) return s;
    const std::size_t n = data.size();
    RankQueryResult<T> res;
    const double t0 = dev.elapsed_ns();
    if (n == 0) return res;

    Status s = with_fault_retry(ctx, [&] {
        // Tripartition histogram {smaller, equal, larger(, pad)} under the
        // total order: NaN keys compare greater than any numeric v, and a
        // NaN v equals exactly the NaN keys (identical decisions to plain
        // </== on NaN-free data).
        auto totals = ctx.zeroed_i32(4, simt::LaunchOrigin::host);
        const int grid = simt::suggest_grid(dev.arch(), n, cfg.block_dim, cfg.unroll);
        dev.launch("rank_count",
                   {.grid_dim = grid, .block_dim = cfg.block_dim,
                    .origin = simt::LaunchOrigin::host, .unroll = cfg.unroll,
                    .stream = cfg.stream},
                   [&, n, v](simt::BlockCtx& blk) {
                       blk.warp_tiles(n, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                           T elems[simt::kWarpSize];
                           std::int32_t side[simt::kWarpSize];
                           w.load(data, base, elems);
                           for (int l = 0; l < w.lanes(); ++l) {
                               side[l] = total_less(elems[l], v)
                                             ? 0
                                             : (total_equal(elems[l], v) ? 1 : 2);
                           }
                           w.add_instr(2 * static_cast<std::uint64_t>(w.lanes()));
                           // 2-bit aggregation: three possible targets
                           w.atomic_add_aggregated(simt::AtomicSpace::global, totals.span(), side,
                                                   2);
                       });
                   });
        res.less = static_cast<std::size_t>(totals[0]);
        res.equal = static_cast<std::size_t>(totals[1]);
    });
    if (!s.ok()) return s;
    res.sim_ns = dev.elapsed_ns() - t0;
    return res;
}

template Result<EquiDepthHistogram<float>> try_equi_depth_histogram<float>(
    simt::Device&, std::span<const float>, const SampleSelectConfig&);
template Result<EquiDepthHistogram<double>> try_equi_depth_histogram<double>(
    simt::Device&, std::span<const double>, const SampleSelectConfig&);
template Result<RankQueryResult<float>> try_rank_of<float>(simt::Device&, std::span<const float>,
                                                           float, const SampleSelectConfig&);
template Result<RankQueryResult<double>> try_rank_of<double>(simt::Device&,
                                                             std::span<const double>, double,
                                                             const SampleSelectConfig&);

}  // namespace gpusel::core
