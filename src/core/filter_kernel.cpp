#include "core/filter_kernel.hpp"

#include <bit>
#include <stdexcept>

#include "simt/simd.hpp"
#include "simt/timing.hpp"

namespace gpusel::core {

namespace {

/// Shared implementation: predicate = (oracle == bucket) extraction into
/// `out`; when `upper` is non-empty, (oracle > bucket) elements go to
/// `upper` through the global cursor counters[1] (top-k fusion).
template <typename T>
void run_filter(simt::Device& dev, std::span<const T> data, std::span<const std::uint8_t> oracles,
                std::int32_t bucket, std::span<T> out, std::span<T> upper,
                std::span<const std::int32_t> block_offsets, int num_buckets,
                std::span<std::int32_t> counters, const SampleSelectConfig& cfg,
                simt::LaunchOrigin origin, int grid_dim, int stream, const char* name) {
    const std::size_t n = data.size();
    if (oracles.size() != n) throw std::invalid_argument("oracle buffer size mismatch");
    const bool shared_mode = cfg.atomic_space == simt::AtomicSpace::shared;
    const bool fused = !upper.empty() || counters.size() > 1;
    if (shared_mode && block_offsets.size() <
                           static_cast<std::size_t>(grid_dim) * static_cast<std::size_t>(num_buckets)) {
        throw std::invalid_argument("block_offsets too small");
    }
    if (!shared_mode && counters.empty()) {
        throw std::invalid_argument("global mode needs a cursor counter");
    }

    dev.launch(
        name,
        {.grid_dim = grid_dim, .block_dim = cfg.block_dim, .origin = origin,
         .unroll = cfg.unroll, .stream = stream < 0 ? cfg.stream : stream},
        [&, n, bucket, num_buckets, shared_mode, fused](simt::BlockCtx& blk) {
            // Target-bucket cursor: shared counter seeded with the block's
            // base offset (merged hierarchy step 3), or the global cursor.
            std::int32_t sh_cursor = 0;
            std::span<std::int32_t> target_ctr;
            simt::AtomicSpace target_space;
            if (shared_mode) {
                const auto idx = static_cast<std::size_t>(blk.block_idx()) *
                                     static_cast<std::size_t>(num_buckets) +
                                 static_cast<std::size_t>(bucket);
                sh_cursor = blk.ld(block_offsets, idx);
                blk.charge_global_read(sizeof(std::int32_t));
                blk.charge_shared(sizeof(std::int32_t));
                target_ctr = std::span<std::int32_t>(&sh_cursor, 1);
                target_space = simt::AtomicSpace::shared;
            } else {
                target_ctr = counters.subspan(0, 1);
                target_space = simt::AtomicSpace::global;
            }

            blk.warp_tiles(n, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                std::uint8_t orc[simt::kWarpSize];
                w.load(oracles, base, orc);
                // Predicate masks come straight from the oracle bytes the
                // count pass cached -- one byte-compare tile op, no
                // per-element bucket recomputation.  The instr charge
                // models the per-lane compare as before.
                const auto b8 = static_cast<std::uint8_t>(bucket);
                const std::uint32_t mask = simt::simd::byte_eq_mask(orc, b8, w.lanes());
                bool pred[simt::kWarpSize];
                simt::simd::mask_to_pred(mask, w.lanes(), pred);
                const std::int32_t zeros[simt::kWarpSize] = {};
                w.add_instr(static_cast<std::uint64_t>(w.lanes()));

                std::int32_t off[simt::kWarpSize];
                // Stream-compaction offsets always use the ballot+popcount
                // aggregation of Bakunas-Milanowski et al. (one atomic per
                // warp); cfg.warp_aggregation only governs the count
                // kernel's histogram (Fig. 6).  All matched lanes share one
                // cursor, so the aggregated fetch_add hands them
                // lane-ordered consecutive offsets: the scatter is a
                // contiguous run starting at the first matched lane's slot
                // and compiles to one masked compress-store tile.
                w.fetch_add(target_space, target_ctr, zeros, off, /*aggregated=*/true,
                            /*index_bits=*/1, pred);
                if (mask != 0) {
                    const int lead = std::countr_zero(mask);
                    w.compress_gather_store(out, static_cast<std::size_t>(off[lead]), data, base,
                                            mask);
                }

                if (fused) {
                    const std::uint32_t umask = simt::simd::byte_gt_mask(orc, b8, w.lanes());
                    bool pred_upper[simt::kWarpSize];
                    simt::simd::mask_to_pred(umask, w.lanes(), pred_upper);
                    std::int32_t uoff[simt::kWarpSize];
                    w.fetch_add(simt::AtomicSpace::global, counters.subspan(1, 1), zeros, uoff,
                                /*aggregated=*/true, /*index_bits=*/1, pred_upper);
                    if (umask != 0) {
                        const int ulead = std::countr_zero(umask);
                        w.compress_gather_store(upper, static_cast<std::size_t>(uoff[ulead]),
                                                data, base, umask);
                    }
                }
            });
        });
}

}  // namespace

template <typename T>
void filter_kernel(simt::Device& dev, std::span<const T> data,
                   std::span<const std::uint8_t> oracles, std::int32_t bucket, std::span<T> out,
                   std::span<const std::int32_t> block_offsets, int num_buckets,
                   std::span<std::int32_t> global_counter, const SampleSelectConfig& cfg,
                   simt::LaunchOrigin origin, int grid_dim, int stream) {
    run_filter<T>(dev, data, oracles, bucket, out, {}, block_offsets, num_buckets, global_counter,
                  cfg, origin, grid_dim, stream, "filter");
}

template <typename T>
void filter_buckets_kernel(simt::Device& dev, std::span<const T> data,
                           std::span<const std::uint8_t> oracles,
                           std::span<const std::int32_t> seg_start, std::span<T> out,
                           std::span<const std::int32_t> block_offsets,
                           std::span<std::int32_t> global_cursors, const SampleSelectConfig& cfg,
                           simt::LaunchOrigin origin, int grid_dim, int stream, const char* name) {
    const std::size_t n = data.size();
    const std::size_t b = seg_start.size();
    if (oracles.size() != n) throw std::invalid_argument("oracle buffer size mismatch");
    if (b == 0 || b > static_cast<std::size_t>(kMaxExactBuckets) || !std::has_single_bit(b)) {
        throw std::invalid_argument("segment table needs a power-of-two bucket count <= 256");
    }
    const bool shared_mode = cfg.atomic_space == simt::AtomicSpace::shared;
    if (shared_mode && block_offsets.size() < static_cast<std::size_t>(grid_dim) * b) {
        throw std::invalid_argument("block_offsets too small");
    }
    if (!shared_mode && global_cursors.size() < b) {
        throw std::invalid_argument("global mode needs one cursor per bucket");
    }
    const int index_bits = std::countr_zero(b);

    dev.launch(
        name,
        {.grid_dim = grid_dim, .block_dim = cfg.block_dim, .origin = origin,
         .unroll = cfg.unroll, .stream = stream},
        [&, n, b, shared_mode, index_bits](simt::BlockCtx& blk) {
            // Keep flags from the segment table.  Shared mode seeds a cursor
            // per kept bucket with its segment start plus the block's base
            // offset (merged hierarchy step 3); global mode uses the
            // caller-seeded cursors.
            bool keep[kMaxExactBuckets] = {};
            std::size_t kept_buckets = 0;
            const std::span<std::int32_t> cursors =
                shared_mode ? blk.shared_array<std::int32_t>(b) : global_cursors;
            const auto base_row = static_cast<std::size_t>(blk.block_idx()) * b;
            for (std::size_t i = 0; i < b; ++i) {
                const std::int32_t start = blk.ld(seg_start, i);
                keep[i] = start >= 0;
                if (!keep[i]) continue;
                ++kept_buckets;
                if (shared_mode) {
                    blk.shared_st(cursors, i, start + blk.ld(block_offsets, base_row + i));
                }
            }
            blk.charge_global_read((b + (shared_mode ? kept_buckets : 0)) * sizeof(std::int32_t));
            if (shared_mode) {
                blk.charge_shared(kept_buckets * sizeof(std::int32_t));
                blk.sync();
            }
            const simt::AtomicSpace space =
                shared_mode ? simt::AtomicSpace::shared : simt::AtomicSpace::global;

            blk.warp_tiles(n, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                std::uint8_t orc[simt::kWarpSize];
                std::int32_t which[simt::kWarpSize];
                bool active[simt::kWarpSize];
                w.load(oracles, base, orc);
                int kept = 0;
                for (int l = 0; l < w.lanes(); ++l) {
                    which[l] = orc[l];
                    active[l] = keep[orc[l]];
                    kept += active[l] ? 1 : 0;
                }
                if (kept == 0) return;
                T elems[simt::kWarpSize];
                std::int32_t off[simt::kWarpSize];
                w.load(data, base, elems);
                w.fetch_add(space, cursors, which, off, cfg.warp_aggregation, index_bits, active);
                w.scatter(out, off, elems, active);  // bucket-scattered writes
            });
        });
}

template <typename T>
void filter_fused_topk_kernel(simt::Device& dev, std::span<const T> data,
                              std::span<const std::uint8_t> oracles, std::int32_t bucket,
                              std::span<T> out, std::span<T> upper,
                              std::span<const std::int32_t> block_offsets, int num_buckets,
                              std::span<std::int32_t> counters, const SampleSelectConfig& cfg,
                              simt::LaunchOrigin origin, int grid_dim, int stream) {
    if (counters.size() < 2) throw std::invalid_argument("fused filter needs two cursors");
    run_filter<T>(dev, data, oracles, bucket, out, upper, block_offsets, num_buckets, counters,
                  cfg, origin, grid_dim, stream, "filter_topk");
}

template void filter_kernel<float>(simt::Device&, std::span<const float>,
                                   std::span<const std::uint8_t>, std::int32_t, std::span<float>,
                                   std::span<const std::int32_t>, int, std::span<std::int32_t>,
                                   const SampleSelectConfig&, simt::LaunchOrigin, int, int);
template void filter_kernel<double>(simt::Device&, std::span<const double>,
                                    std::span<const std::uint8_t>, std::int32_t, std::span<double>,
                                    std::span<const std::int32_t>, int, std::span<std::int32_t>,
                                    const SampleSelectConfig&, simt::LaunchOrigin, int, int);
template void filter_buckets_kernel<float>(simt::Device&, std::span<const float>,
                                           std::span<const std::uint8_t>,
                                           std::span<const std::int32_t>, std::span<float>,
                                           std::span<const std::int32_t>, std::span<std::int32_t>,
                                           const SampleSelectConfig&, simt::LaunchOrigin, int, int,
                                           const char*);
template void filter_buckets_kernel<double>(simt::Device&, std::span<const double>,
                                            std::span<const std::uint8_t>,
                                            std::span<const std::int32_t>, std::span<double>,
                                            std::span<const std::int32_t>, std::span<std::int32_t>,
                                            const SampleSelectConfig&, simt::LaunchOrigin, int,
                                            int, const char*);
template void filter_fused_topk_kernel<float>(simt::Device&, std::span<const float>,
                                              std::span<const std::uint8_t>, std::int32_t,
                                              std::span<float>, std::span<float>,
                                              std::span<const std::int32_t>, int,
                                              std::span<std::int32_t>, const SampleSelectConfig&,
                                              simt::LaunchOrigin, int, int);
template void filter_fused_topk_kernel<double>(simt::Device&, std::span<const double>,
                                               std::span<const std::uint8_t>, std::int32_t,
                                               std::span<double>, std::span<double>,
                                               std::span<const std::int32_t>, int,
                                               std::span<std::int32_t>, const SampleSelectConfig&,
                                               simt::LaunchOrigin, int, int);
template void filter_kernel<ArgPair>(simt::Device&, std::span<const ArgPair>,
                                     std::span<const std::uint8_t>, std::int32_t,
                                     std::span<ArgPair>, std::span<const std::int32_t>, int,
                                     std::span<std::int32_t>, const SampleSelectConfig&,
                                     simt::LaunchOrigin, int, int);
template void filter_fused_topk_kernel<ArgPair>(simt::Device&, std::span<const ArgPair>,
                                                std::span<const std::uint8_t>, std::int32_t,
                                                std::span<ArgPair>, std::span<ArgPair>,
                                                std::span<const std::int32_t>, int,
                                                std::span<std::int32_t>, const SampleSelectConfig&,
                                                simt::LaunchOrigin, int, int);

}  // namespace gpusel::core
