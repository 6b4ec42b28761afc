#include "core/argselect.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "bitonic/bitonic.hpp"
#include "core/float_order.hpp"
#include "core/pipeline.hpp"
#include "core/sample_select.hpp"
#include "simt/simd.hpp"

namespace gpusel::core {

namespace {

/// NaN positions in ascending index order (host staging pre-pass).  NaN
/// keys are the maximum of the total order and NaN pairs order by payload,
/// so this list *is* the ordered NaN tail of the pair sequence.
std::vector<std::uint32_t> nan_indices(std::span<const float> keys) {
    std::vector<std::uint32_t> idx;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (is_nan_key(keys[i])) idx.push_back(static_cast<std::uint32_t>(i));
    }
    return idx;
}

/// Builds the (key, original index) pairs over the non-NaN keys, in input
/// order; `negate` flips the key sign so that ascending pair rank means
/// descending key (the top-k trick) while ties still prefer the smaller
/// index.  Host-side staging work, untimed like every staging copy.
std::vector<ArgPair> numeric_pairs(std::span<const float> keys, bool negate) {
    std::vector<ArgPair> pairs;
    pairs.reserve(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const float k = keys[i];
        if (is_nan_key(k)) continue;
        pairs.push_back({negate ? -k : k, static_cast<std::uint32_t>(i)});
    }
    return pairs;
}

/// One streaming gather pass extracting every pair <= thr (pair total
/// order) into `out` via the masked compress-store engine.  The pair order
/// is strict (payloads are distinct indices), so when thr has ascending
/// rank out.size()-1 the pass emits exactly out.size() pairs.
Status extract_upto(const PipelineContext& ctx, std::span<const ArgPair> pairs, ArgPair thr,
                    std::span<ArgPair> out, const SampleSelectConfig& cfg) {
    simt::Device& dev = ctx.dev();
    const std::size_t n = pairs.size();
    std::int32_t emitted = 0;
    Status s = with_fault_retry(ctx, [&] {
        auto cursor = ctx.zeroed_i32(1, simt::LaunchOrigin::device);
        const int grid = simt::suggest_grid(dev.arch(), n, cfg.block_dim, cfg.unroll);
        dev.launch(
            "argselect_gather",
            {.grid_dim = grid, .block_dim = cfg.block_dim, .origin = simt::LaunchOrigin::device,
             .unroll = cfg.unroll, .stream = cfg.stream},
            [&, thr, n](simt::BlockCtx& blk) {
                blk.warp_tiles(n, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                    ArgPair elems[simt::kWarpSize];
                    bool pred[simt::kWarpSize];
                    std::int32_t off[simt::kWarpSize];
                    const std::int32_t zeros[simt::kWarpSize] = {};
                    w.load(pairs, base, elems);
                    std::uint32_t mask = 0;
                    for (int l = 0; l < w.lanes(); ++l) {
                        pred[l] = !total_less(thr, elems[l]);
                        if (pred[l]) mask |= 1u << l;
                    }
                    w.add_instr(static_cast<std::uint64_t>(w.lanes()));
                    w.fetch_add(simt::AtomicSpace::global, cursor.span(), zeros, off,
                                /*aggregated=*/true, 1, pred);
                    // Aggregated offsets are lane-ordered consecutive, so
                    // the selected pairs land as one compress-store tile.
                    if (mask != 0) {
                        w.compress_store(out, static_cast<std::size_t>(off[std::countr_zero(mask)]),
                                         mask, elems);
                    }
                });
            });
        emitted = cursor[0];
    });
    if (!s.ok()) return s;
    if (emitted != static_cast<std::int32_t>(out.size())) {
        return Status::failure(SelectError::internal,
                               "argselect_gather: extracted count does not match the threshold "
                               "rank (pair order not strict?)");
    }
    return Status::success();
}

/// Shared front-end validation; n must fit the 32-bit pair payload.
Status check_args(const SampleSelectConfig& cfg, std::size_t n, const char* who) {
    if (Status vs = cfg.validate(/*exact=*/true); !vs.ok()) return vs;
    if (n > static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max())) {
        return Status::failure(SelectError::invalid_argument,
                               std::string(who) + ": input too large for 32-bit index payloads");
    }
    return Status::success();
}

}  // namespace

Result<ArgSelectResult> try_argselect(simt::Device& dev, std::span<const float> keys,
                                      std::size_t rank, const SampleSelectConfig& cfg) {
    const std::size_t n = keys.size();
    Status s = check_args(cfg, n, "argselect");
    if (!s.ok()) return s;
    if (rank >= n) {
        return Status::failure(SelectError::rank_out_of_range, "argselect: rank out of range");
    }

    const std::vector<std::uint32_t> nans = nan_indices(keys);
    if (!nans.empty() && cfg.nan_policy == NanPolicy::reject) {
        return Status::failure(SelectError::nan_keys_rejected,
                               "argselect: input contains NaN keys");
    }
    ArgSelectResult res;
    res.nan_count = nans.size();

    const std::size_t n_num = n - nans.size();
    if (rank >= n_num) {
        // NaN-tail rank: NaN pairs order by ascending index, so the answer
        // is host-known without any device work.
        res.key = std::numeric_limits<float>::quiet_NaN();
        res.index = nans[rank - n_num];
        return res;
    }

    const std::vector<ArgPair> pairs = numeric_pairs(keys, /*negate=*/false);
    auto sel = try_sample_select<ArgPair>(dev, std::span<const ArgPair>(pairs), rank, cfg);
    if (!sel.ok()) return sel.status();
    const SelectResult<ArgPair> r = sel.take();
    res.key = r.value.key;
    res.index = r.value.payload;
    res.levels = r.levels;
    res.equality_exit = r.equality_exit;
    res.sim_ns = r.sim_ns;
    res.launches = r.launches;
    res.resamples = r.resamples;
    res.fallback_levels = r.fallback_levels;
    return res;
}

Result<ArgTopKResult> try_topk_largest_indices(simt::Device& dev, std::span<const float> keys,
                                               std::size_t k, const SampleSelectConfig& cfg) {
    const std::size_t n = keys.size();
    Status s = check_args(cfg, n, "topk_largest_indices");
    if (!s.ok()) return s;
    if (k == 0 || k > n) {
        return Status::failure(SelectError::rank_out_of_range,
                               "topk_largest_indices: k must be in [1, n]");
    }
    const std::vector<std::uint32_t> nans = nan_indices(keys);
    if (!nans.empty() && cfg.nan_policy == NanPolicy::reject) {
        return Status::failure(SelectError::nan_keys_rejected,
                               "topk_largest_indices: input contains NaN keys");
    }

    ArgTopKResult res;
    res.nan_count = nans.size();
    res.values.reserve(k);
    res.indices.reserve(k);
    const double t0 = dev.elapsed_ns();
    const std::uint64_t l0 = dev.launch_count();

    // NaN keys are the largest of the total order: they claim top-k slots
    // first, among themselves by ascending index.
    const std::size_t nan_take = nans.size() < k ? nans.size() : k;
    for (std::size_t i = 0; i < nan_take; ++i) {
        res.values.push_back(std::numeric_limits<float>::quiet_NaN());
        res.indices.push_back(nans[i]);
    }
    const std::size_t kk = k - nan_take;

    if (kk > 0) {
        // Negated keys: the kk smallest pairs are the kk largest keys, and
        // the payload tie-break still prefers smaller original indices.
        const std::vector<ArgPair> pairs = numeric_pairs(keys, /*negate=*/true);
        const std::size_t n_num = pairs.size();
        PipelineContext ctx(dev, cfg);
        DataHolder<ArgPair> data;
        s = with_fault_retry(ctx, [&] {
            data = DataHolder<ArgPair>::stage(ctx, std::span<const ArgPair>(pairs));
        });
        if (!s.ok()) return s;

        // Threshold = pair of ascending rank kk-1; the selection consumes a
        // device-side copy so `data` stays intact for the gather pass.
        DataHolder<ArgPair> copy;
        s = with_fault_retry(ctx, [&] {
            copy = DataHolder<ArgPair>::acquire(ctx, n_num);
            launch_copy<ArgPair>(dev, data.span(), 0, copy.span(), 0, n_num,
                                 simt::LaunchOrigin::host, cfg.block_dim, cfg.stream);
        });
        if (!s.ok()) return s;
        auto sel = try_sample_select_staged<ArgPair>(dev, std::move(copy), kk - 1, cfg);
        if (!sel.ok()) return sel.status();
        const ArgPair thr = sel.value().value;

        simt::PooledBuffer<ArgPair> out;
        s = with_fault_retry(ctx, [&] { out = ctx.scratch<ArgPair>(kk); });
        if (!s.ok()) return s;
        s = extract_upto(ctx, std::span<const ArgPair>(data.span()), thr, out.span(), cfg);
        if (!s.ok()) return s;

        // Host-side ordering of the k results (untimed post-processing,
        // like every result readback): ascending negated pairs equals
        // descending original keys with ascending-index ties.
        std::vector<ArgPair> got(out.data(), out.data() + kk);
        std::sort(got.begin(), got.end(),
                  [](ArgPair a, ArgPair b) { return total_less(a, b); });
        for (const ArgPair& p : got) {
            res.values.push_back(-p.key);
            res.indices.push_back(p.payload);
        }
        res.threshold = -thr.key;
    } else {
        res.threshold = std::numeric_limits<float>::quiet_NaN();  // k-th largest is a NaN
    }

    res.sim_ns = dev.elapsed_ns() - t0;
    res.launches = dev.launch_count() - l0;
    return res;
}

Result<KeyValueSortResult> try_partial_sort_by_key(simt::Device& dev,
                                                   std::span<const float> keys,
                                                   std::span<const std::uint32_t> payloads,
                                                   std::size_t k,
                                                   const SampleSelectConfig& cfg) {
    const std::size_t n = keys.size();
    Status s = check_args(cfg, n, "partial_sort_by_key");
    if (!s.ok()) return s;
    if (payloads.size() != n) {
        return Status::failure(SelectError::invalid_argument,
                               "partial_sort_by_key: keys/payloads size mismatch");
    }
    if (k == 0 || k > n) {
        return Status::failure(SelectError::rank_out_of_range,
                               "partial_sort_by_key: k must be in [1, n]");
    }
    const std::vector<std::uint32_t> nans = nan_indices(keys);
    if (!nans.empty() && cfg.nan_policy == NanPolicy::reject) {
        return Status::failure(SelectError::nan_keys_rejected,
                               "partial_sort_by_key: input contains NaN keys");
    }

    KeyValueSortResult res;
    res.nan_count = nans.size();
    res.keys.reserve(k);
    res.payloads.reserve(k);
    const double t0 = dev.elapsed_ns();
    const std::uint64_t l0 = dev.launch_count();

    const std::size_t n_num = n - nans.size();
    const std::size_t kk = k < n_num ? k : n_num;  // numeric records wanted
    if (kk > 0) {
        const std::vector<ArgPair> pairs = numeric_pairs(keys, /*negate=*/false);
        PipelineContext ctx(dev, cfg);
        DataHolder<ArgPair> data;
        s = with_fault_retry(ctx, [&] {
            data = DataHolder<ArgPair>::stage(ctx, std::span<const ArgPair>(pairs));
        });
        if (!s.ok()) return s;

        simt::PooledBuffer<ArgPair> extracted;
        std::span<ArgPair> sel_span;
        if (kk < n_num) {
            // Threshold at ascending rank kk-1 (consumes a copy), then one
            // compress-store pass extracts exactly the kk-record prefix.
            DataHolder<ArgPair> copy;
            s = with_fault_retry(ctx, [&] {
                copy = DataHolder<ArgPair>::acquire(ctx, n_num);
                launch_copy<ArgPair>(dev, data.span(), 0, copy.span(), 0, n_num,
                                     simt::LaunchOrigin::host, cfg.block_dim, cfg.stream);
            });
            if (!s.ok()) return s;
            auto sel = try_sample_select_staged<ArgPair>(dev, std::move(copy), kk - 1, cfg);
            if (!sel.ok()) return sel.status();
            const ArgPair thr = sel.value().value;
            s = with_fault_retry(ctx, [&] { extracted = ctx.scratch<ArgPair>(kk); });
            if (!s.ok()) return s;
            s = extract_upto(ctx, std::span<const ArgPair>(data.span()), thr, extracted.span(),
                             cfg);
            if (!s.ok()) return s;
            sel_span = extracted.span();
        } else {
            // Every numeric record is in the prefix: sort them all.
            sel_span = data.span();
        }

        // Sorting only the k extracted records: on the device while they
        // fit the bitonic network, on the host beyond that (same total
        // order either way -- the records are NaN-free and distinct).
        if (kk <= bitonic::kMaxSortSize) {
            s = with_fault_retry(ctx, [&] {
                bitonic::sort_on_device<ArgPair>(dev, sel_span, kk, simt::LaunchOrigin::device,
                                                 cfg.block_dim, cfg.stream);
            });
            if (!s.ok()) return s;
            for (std::size_t j = 0; j < kk; ++j) {
                res.keys.push_back(sel_span[j].key);
                res.payloads.push_back(payloads[sel_span[j].payload]);
            }
        } else {
            std::vector<ArgPair> got(sel_span.begin(), sel_span.begin() + kk);
            std::sort(got.begin(), got.end(),
                      [](ArgPair a, ArgPair b) { return total_less(a, b); });
            for (const ArgPair& p : got) {
                res.keys.push_back(p.key);
                res.payloads.push_back(payloads[p.payload]);
            }
        }
    }

    // NaN tail completes the prefix when k exceeds the numeric count:
    // ascending index, NaN keys.
    for (std::size_t i = 0; i < k - kk; ++i) {
        res.keys.push_back(std::numeric_limits<float>::quiet_NaN());
        res.payloads.push_back(payloads[nans[i]]);
    }

    res.sim_ns = dev.elapsed_ns() - t0;
    res.launches = dev.launch_count() - l0;
    return res;
}

}  // namespace gpusel::core
