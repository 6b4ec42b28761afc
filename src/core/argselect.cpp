#include "core/argselect.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "bitonic/bitonic.hpp"
#include "core/float_order.hpp"
#include "core/opening.hpp"
#include "core/pipeline.hpp"
#include "simt/simd.hpp"

namespace gpusel::core {

namespace {

/// The (key, original index) pair of every key, in input order; `negate`
/// flips the key sign so that ascending pair rank means descending key
/// (the top-k trick) while ties still prefer the smaller index.  NaN keys
/// stay NaN, so the opening partitions their pairs off like any NaN key.
/// Host-side staging work, untimed like every staging copy.
std::vector<ArgPair> key_pairs(std::span<const float> keys, bool negate) {
    std::vector<ArgPair> pairs(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        pairs[i] = {negate ? -keys[i] : keys[i], static_cast<std::uint32_t>(i)};
    }
    return pairs;
}

/// Original positions of the NaN keys in ascending order: NaN pairs order
/// by payload, so this is the ordered NaN tail of the pair sequence.  The
/// opening leaves the tail in partition order; it is sorted here, on the
/// host.
std::vector<std::uint32_t> nan_positions(const Opened<ArgPair>& o) {
    std::vector<std::uint32_t> idx;
    idx.reserve(o.nan_count);
    for (const ArgPair& p : o.nan_tail()) idx.push_back(p.payload);
    std::sort(idx.begin(), idx.end());
    return idx;
}

/// The k smallest pairs (unordered) of opened pairs, which stay intact.
struct Smallest {
    /// The pair of ascending rank k-1.
    ArgPair threshold{};
    simt::PooledBuffer<ArgPair> pairs;
};

/// Selects the threshold pair of ascending rank k - 1 (0 < k <= size) on a
/// device-side copy, then extracts every pair <= it in one streaming
/// gather pass via the masked compress-store engine.  The pair order is
/// strict (payloads are distinct indices), so exactly k pairs match.
Result<Smallest> take_smallest(const PipelineContext& ctx, const DataHolder<ArgPair>& data,
                                 std::size_t k) {
    simt::Device& dev = ctx.dev();
    const SampleSelectConfig& cfg = ctx.cfg();
    const std::span<const ArgPair> pairs = data.span();
    const std::size_t n = pairs.size();
    DataHolder<ArgPair> copy;
    Status s = with_fault_retry(ctx, [&] {
        copy = DataHolder<ArgPair>::acquire(ctx, n);
        launch_copy<ArgPair>(dev, pairs, 0, copy.span(), 0, n, simt::LaunchOrigin::host,
                             cfg.block_dim, cfg.stream);
    });
    if (!s.ok()) return s;
    auto sel = try_sample_select_staged<ArgPair>(dev, std::move(copy), k - 1, cfg);
    if (!sel.ok()) return sel.status();
    Smallest res;
    res.threshold = sel.value().value;
    s = with_fault_retry(ctx, [&] { res.pairs = ctx.scratch<ArgPair>(k); });
    if (!s.ok()) return s;

    const ArgPair thr = res.threshold;
    const std::span<ArgPair> out = res.pairs.span();
    std::int32_t emitted = 0;
    s = with_fault_retry(ctx, [&] {
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
    if (emitted != static_cast<std::int32_t>(k)) {
        return Status::failure(SelectError::internal,
                               "argselect_gather: extracted count does not match the threshold "
                               "rank (pair order not strict?)");
    }
    return res;
}

/// Shared front-end range check: n must fit the 32-bit pair payload, then
/// the front-end's own `range`.
Status check_args(std::size_t n, const char* who, Status range) {
    if (n > static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max())) {
        return Status::failure(SelectError::invalid_argument,
                               std::string(who) + ": input too large for 32-bit index payloads");
    }
    return range;
}

}  // namespace

Result<ArgSelectResult> try_argselect(simt::Device& dev, std::span<const float> keys,
                                      std::size_t rank, const SampleSelectConfig& cfg) {
    const std::size_t n = keys.size();
    const Status range =
        check_args(n, "argselect",
                   rank >= n ? Status::failure(SelectError::rank_out_of_range,
                                               "argselect: rank out of range")
                             : Status::success());
    const std::vector<ArgPair> pairs = range.ok() ? key_pairs(keys, /*negate=*/false)
                                                  : std::vector<ArgPair>{};
    Result<Opened<ArgPair>> o =
        try_open<ArgPair>(PipelineContext(dev, cfg), std::span<const ArgPair>(pairs), range);
    if (!o.ok()) return o.status();
    Opened<ArgPair>& op = o.value();
    ArgSelectResult res;
    res.nan_count = op.nan_count;

    const std::size_t n_num = op.data.size();
    if (rank >= n_num) {
        // NaN-tail rank: NaN pairs order by ascending index, so the answer
        // is host-known without any device work.
        res.key = std::numeric_limits<float>::quiet_NaN();
        res.index = nan_positions(op)[rank - n_num];
        return res;
    }

    auto sel = try_sample_select_staged<ArgPair>(dev, std::move(op.data), rank, cfg);
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
    const Status range =
        check_args(n, "topk_largest_indices",
                   k == 0 || k > n ? Status::failure(SelectError::rank_out_of_range,
                                                     "topk_largest_indices: k must be in [1, n]")
                                   : Status::success());
    // Negated keys: the kk smallest pairs are the kk largest keys, and the
    // payload tie-break still prefers smaller original indices.
    const std::vector<ArgPair> pairs = range.ok() ? key_pairs(keys, /*negate=*/true)
                                                  : std::vector<ArgPair>{};
    const PipelineContext ctx(dev, cfg);
    Result<Opened<ArgPair>> o = try_open<ArgPair>(ctx, std::span<const ArgPair>(pairs), range);
    if (!o.ok()) return o.status();
    Opened<ArgPair>& op = o.value();

    ArgTopKResult res;
    res.nan_count = op.nan_count;
    res.values.reserve(k);
    res.indices.reserve(k);
    const Stamp<ArgTopKResult> stamp(dev);

    // NaN keys are the largest of the total order: they claim top-k slots
    // first, among themselves by ascending index.
    const std::size_t nan_take = op.nan_count < k ? op.nan_count : k;
    const std::vector<std::uint32_t> nans = nan_positions(op);
    for (std::size_t i = 0; i < nan_take; ++i) {
        res.values.push_back(std::numeric_limits<float>::quiet_NaN());
        res.indices.push_back(nans[i]);
    }
    const std::size_t kk = k - nan_take;

    if (kk > 0) {
        Result<Smallest> top = take_smallest(ctx, op.data, kk);
        if (!top.ok()) return top.status();
        const simt::PooledBuffer<ArgPair>& out = top.value().pairs;

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
        res.threshold = -top.value().threshold.key;
    } else {
        res.threshold = std::numeric_limits<float>::quiet_NaN();  // k-th largest is a NaN
    }
    stamp.write(res);
    return res;
}

Result<KeyValueSortResult> try_partial_sort_by_key(simt::Device& dev,
                                                   std::span<const float> keys,
                                                   std::span<const std::uint32_t> payloads,
                                                   std::size_t k,
                                                   const SampleSelectConfig& cfg) {
    const std::size_t n = keys.size();
    const Status range = check_args(
        n, "partial_sort_by_key",
        payloads.size() != n ? Status::failure(SelectError::invalid_argument,
                                               "partial_sort_by_key: keys/payloads size mismatch")
        : k == 0 || k > n    ? Status::failure(SelectError::rank_out_of_range,
                                               "partial_sort_by_key: k must be in [1, n]")
                             : Status::success());
    const std::vector<ArgPair> pairs = range.ok() ? key_pairs(keys, /*negate=*/false)
                                                  : std::vector<ArgPair>{};
    const PipelineContext ctx(dev, cfg);
    Result<Opened<ArgPair>> o = try_open<ArgPair>(ctx, std::span<const ArgPair>(pairs), range);
    if (!o.ok()) return o.status();
    Opened<ArgPair>& op = o.value();

    KeyValueSortResult res;
    res.nan_count = op.nan_count;
    res.keys.reserve(k);
    res.payloads.reserve(k);
    const std::vector<std::uint32_t> nans = nan_positions(op);
    const Stamp<KeyValueSortResult> stamp(dev);

    const std::size_t n_num = op.data.size();
    const std::size_t kk = k < n_num ? k : n_num;  // numeric records wanted
    if (kk > 0) {
        simt::PooledBuffer<ArgPair> extracted;
        std::span<ArgPair> sel_span;
        if (kk < n_num) {
            Result<Smallest> low = take_smallest(ctx, op.data, kk);
            if (!low.ok()) return low.status();
            extracted = std::move(low.value().pairs);
            sel_span = extracted.span();
        } else {
            // Every numeric record is in the prefix: sort them all.
            sel_span = op.data.span();
        }

        // Sorting only the k extracted records: on the device while they
        // fit the bitonic network, on the host beyond that (same total
        // order either way -- the records are NaN-free and distinct).
        if (kk <= bitonic::kMaxSortSize) {
            Status s = with_fault_retry(ctx, [&] {
                bitonic::sort_on_device<ArgPair>(dev, sel_span, kk, simt::LaunchOrigin::device,
                                                 cfg.block_dim, cfg.stream);
            });
            if (!s.ok()) return s;
            for (std::size_t j = 0; j < kk; ++j) {
                res.keys.push_back(sel_span[j].key);
                res.payloads.push_back(payloads[sel_span[j].payload]);
            }
        } else {
            std::vector<ArgPair> got(sel_span.begin(), sel_span.end());
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
    stamp.write(res);
    return res;
}

}  // namespace gpusel::core
