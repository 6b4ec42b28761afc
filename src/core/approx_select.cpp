#include "core/approx_select.hpp"

#include <algorithm>
#include <utility>

#include "core/float_order.hpp"
#include "core/opening.hpp"
#include "core/pipeline.hpp"

namespace gpusel::core {

template <typename T>
Result<ApproxMultiResult<T>> try_approx_multi_select(simt::Device& dev, std::span<const T> input,
                                                     std::span<const std::size_t> ranks,
                                                     const SampleSelectConfig& cfg) {
    const PipelineContext ctx(dev, cfg);
    Result<Opened<T>> o =
        try_open<T>(ctx, input, check_ranks(input.size(), ranks), /*exact=*/false);
    if (!o.ok()) return o.status();
    // Ranks inside the NaN tail answer quiet NaN with zero rank error.
    const std::span<const T> level_data = o.value().data.span();
    const std::size_t n_num = level_data.size();
    const auto origin = simt::LaunchOrigin::host;

    ApproxMultiResult<T> res;
    res.points.resize(ranks.size());
    const Stamp<ApproxMultiResult<T>> stamp(dev);

    // The level locates ranks.front(), so it runs only when a rank is asked.
    if (n_num > 0 && !ranks.empty()) {
        const auto b = static_cast<std::size_t>(cfg.num_buckets);
        // The located rank only picks lv.bucket (unused here); clamp it into
        // the numeric prefix so the reduce's locate stays in range.
        const std::size_t located = ranks.front() < n_num ? ranks.front() : n_num - 1;

        // Single count-only level: no oracle write (this variant never
        // filters), no per-block offsets kept.
        auto lvres = try_run_bucket_level<T>(
            ctx, level_data, located, origin, /*salt=*/0,
            {.write_oracles = false, .keep_block_offsets = false, .locate = true});
        if (!lvres.ok()) return lvres.status();
        const LevelOutcome<T> lv = lvres.take();
        const auto totals = lv.totals_span();
        const auto prefix = lv.prefix_span();

        std::size_t max_bucket = 0;
        for (std::size_t i = 0; i < b; ++i) {
            max_bucket = std::max(max_bucket, static_cast<std::size_t>(totals[i]));
        }

        // Splitter ranks are r_i = prefix[i] for i = 1..b-1; answer every
        // target rank from the same prefix table.
        for (std::size_t q = 0; q < ranks.size(); ++q) {
            const std::size_t rank = ranks[q];
            auto& p = res.points[q];
            if (rank >= n_num) {
                p.value = quiet_nan<T>();
                p.splitter_rank = rank;
                p.rank_error = 0;
                p.max_bucket = max_bucket;
                continue;
            }
            std::size_t best = 1;
            std::size_t best_err = static_cast<std::size_t>(-1);
            for (std::size_t i = 1; i < b; ++i) {
                const auto r = static_cast<std::size_t>(prefix[i]);
                const std::size_t err = r > rank ? r - rank : rank - r;
                if (err < best_err) {
                    best_err = err;
                    best = i;
                }
            }
            p.value = lv.tree.splitters[best - 1];
            p.splitter_rank = static_cast<std::size_t>(prefix[best]);
            p.rank_error = best_err;
            p.max_bucket = max_bucket;
        }
    } else {
        // All keys are NaN: every rank answers the NaN representative.
        for (std::size_t q = 0; q < ranks.size(); ++q) {
            auto& p = res.points[q];
            p.value = quiet_nan<T>();
            p.splitter_rank = ranks[q];
            p.rank_error = 0;
        }
    }
    stamp.write(res);
    for (auto& p : res.points) {
        p.sim_ns = res.sim_ns;
        p.launches = res.launches;
    }
    return res;
}

template <typename T>
Result<ApproxResult<T>> try_approx_select(simt::Device& dev, std::span<const T> input,
                                          std::size_t rank, const SampleSelectConfig& cfg) {
    const std::size_t ranks[] = {rank};
    auto multi = try_approx_multi_select<T>(dev, input, ranks, cfg);
    if (!multi.ok()) return multi.status();
    return multi.value().points.front();
}

template Result<ApproxMultiResult<float>> try_approx_multi_select<float>(
    simt::Device&, std::span<const float>, std::span<const std::size_t>,
    const SampleSelectConfig&);
template Result<ApproxMultiResult<double>> try_approx_multi_select<double>(
    simt::Device&, std::span<const double>, std::span<const std::size_t>,
    const SampleSelectConfig&);
template Result<ApproxResult<float>> try_approx_select<float>(simt::Device&,
                                                              std::span<const float>, std::size_t,
                                                              const SampleSelectConfig&);
template Result<ApproxResult<double>> try_approx_select<double>(simt::Device&,
                                                                std::span<const double>,
                                                                std::size_t,
                                                                const SampleSelectConfig&);

}  // namespace gpusel::core
