#include "baselines/quickselect.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <vector>

#include "bitonic/bitonic.hpp"
#include "core/count_kernel.hpp"
#include "core/reduce_kernel.hpp"
#include "data/rng.hpp"
#include "simt/simd.hpp"
#include "simt/timing.hpp"

namespace gpusel::baselines {

namespace {

/// Tripartition counter layout: padded to 4 for 2-bit warp aggregation.
constexpr std::size_t kSides = 4;
constexpr std::int32_t kSmaller = 0;
constexpr std::int32_t kEqual = 1;
constexpr std::int32_t kLarger = 2;

/// Pivot selection (Sec. IV-D): bitonic-sort a small random sample in
/// shared memory, take the median.
template <typename T>
T pivot_kernel(simt::Device& dev, std::span<const T> data, const core::QuickSelectConfig& cfg,
               simt::LaunchOrigin origin, std::uint64_t salt) {
    const auto s = static_cast<std::size_t>(cfg.pivot_sample_size);
    T pivot{};
    // lint-kernels: allow(R6) -- single-stream baseline, runs entirely on the default stream
    dev.launch("pivot", {.grid_dim = 1, .block_dim = cfg.block_dim, .origin = origin},
               [&](simt::BlockCtx& blk) {
                   const std::size_t m = bitonic::next_pow2(s);
                   auto sh = blk.shared_array<T>(m);
                   data::Xoshiro256 rng(cfg.seed ^ (salt * 0x9e3779b97f4a7c15ULL));
                   std::vector<std::size_t> idx(s);
                   for (auto& i : idx) i = rng.bounded(data.size());
                   blk.charge_instr(s);
                   blk.warp_tiles(s, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                       T regs[simt::kWarpSize];
                       w.gather(data, idx.data() + base, regs);
                       for (int l = 0; l < w.lanes(); ++l) {
                           blk.shared_st(sh, base + static_cast<std::size_t>(l), regs[l]);
                       }
                       w.touch_shared(static_cast<std::uint64_t>(w.lanes()) * sizeof(T));
                   });
                   bitonic::sort_in_shared(blk, sh, s);
                   pivot = blk.shared_ld(sh, s / 2);
                   blk.charge_shared(sizeof(T));
                   blk.charge_global_write(sizeof(T));
               });
    return pivot;
}

/// Tripartition counting pass: {smaller, equal, larger} histogram with the
/// configured atomic flavour (the QuickSelect analogue of `count`).
template <typename T>
int tripartition_count(simt::Device& dev, std::span<const T> data, T pivot,
                       std::span<std::int32_t> totals, std::span<std::int32_t> block_counts,
                       const core::QuickSelectConfig& cfg, simt::LaunchOrigin origin) {
    const std::size_t n = data.size();
    const bool shared_mode = cfg.atomic_space == simt::AtomicSpace::shared;
    const int grid = simt::suggest_grid(dev.arch(), n, cfg.block_dim, cfg.unroll);
    // lint-kernels: allow(R6) -- single-stream baseline, runs entirely on the default stream
    dev.launch(
        "quick_count",
        {.grid_dim = grid, .block_dim = cfg.block_dim, .origin = origin, .unroll = cfg.unroll},
        [&, n, pivot, shared_mode](simt::BlockCtx& blk) {
            std::span<std::int32_t> counters;
            std::span<std::int32_t> sh;
            if (shared_mode) {
                sh = blk.shared_array<std::int32_t>(kSides);
                std::fill(sh.begin(), sh.end(), 0);
                blk.charge_shared(kSides * sizeof(std::int32_t));
                blk.sync();
                counters = sh;
            } else {
                counters = totals;
            }
            const auto space = shared_mode ? simt::AtomicSpace::shared : simt::AtomicSpace::global;
            blk.warp_tiles(n, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                T elems[simt::kWarpSize];
                std::int32_t side[simt::kWarpSize];
                w.load(data, base, elems);
                // side: kSmaller / kEqual / kLarger (0/1/2), vectorized
                simt::simd::tripartition_sides(elems, pivot, w.lanes(), side);
                w.add_instr(2 * static_cast<std::uint64_t>(w.lanes()));
                if (cfg.warp_aggregation) {
                    w.atomic_add_aggregated(space, counters, side, /*index_bits=*/2);
                } else {
                    w.atomic_add(space, counters, side);
                }
            });
            if (shared_mode) {
                blk.sync();
                const auto base = static_cast<std::size_t>(blk.block_idx()) * kSides;
                for (std::size_t i = 0; i < kSides; ++i) {
                    blk.st(block_counts, base + i, blk.shared_ld(sh, i));
                }
                blk.charge_shared(kSides * sizeof(std::int32_t));
                blk.charge_global_write(kSides * sizeof(std::int32_t));
            }
        });
    return grid;
}

/// Predicated one-sided extraction: copies the elements of `side`
/// (kSmaller: x < pivot, kLarger: x > pivot) compactly into `out`.
template <typename T>
void extract_side(simt::Device& dev, std::span<const T> data, T pivot, std::int32_t side,
                  std::span<T> out, std::span<const std::int32_t> block_offsets,
                  std::span<std::int32_t> cursor, const core::QuickSelectConfig& cfg,
                  simt::LaunchOrigin origin, int grid_dim) {
    const std::size_t n = data.size();
    const bool shared_mode = cfg.atomic_space == simt::AtomicSpace::shared;
    // lint-kernels: allow(R6) -- single-stream baseline, runs entirely on the default stream
    dev.launch(
        "quick_filter",
        {.grid_dim = grid_dim, .block_dim = cfg.block_dim, .origin = origin,
         .unroll = cfg.unroll},
        [&, n, pivot, side, shared_mode](simt::BlockCtx& blk) {
            std::int32_t sh_cursor = 0;
            std::span<std::int32_t> ctr;
            simt::AtomicSpace space;
            if (shared_mode) {
                const auto idx = static_cast<std::size_t>(blk.block_idx()) * kSides +
                                 static_cast<std::size_t>(side);
                sh_cursor = blk.ld(block_offsets, idx);
                blk.charge_global_read(sizeof(std::int32_t));
                blk.charge_shared(sizeof(std::int32_t));
                ctr = std::span<std::int32_t>(&sh_cursor, 1);
                space = simt::AtomicSpace::shared;
            } else {
                ctr = cursor.subspan(0, 1);
                space = simt::AtomicSpace::global;
            }
            blk.warp_tiles(n, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                T elems[simt::kWarpSize];
                bool pred[simt::kWarpSize];
                const std::int32_t zeros[simt::kWarpSize] = {};
                std::int32_t off[simt::kWarpSize];
                w.load(data, base, elems);
                const std::uint32_t mask =
                    side == kSmaller ? simt::simd::cmp_lt_mask(elems, pivot, w.lanes())
                                     : simt::simd::cmp_gt_mask(elems, pivot, w.lanes());
                simt::simd::mask_to_pred(mask, w.lanes(), pred);
                w.add_instr(static_cast<std::uint64_t>(w.lanes()));
                // compaction offsets: always ballot-aggregated (see filter),
                // so matched lanes get lane-ordered consecutive slots and
                // the scatter is one masked compress-store tile.
                w.fetch_add(space, ctr, zeros, off, /*aggregated=*/true, /*index_bits=*/1, pred);
                if (mask != 0) {
                    const int lead = std::countr_zero(mask);
                    w.compress_store(out, static_cast<std::size_t>(off[lead]), mask, elems);
                }
            });
        });
}

}  // namespace

template <typename T>
void bipartition_kernel(simt::Device& dev, std::span<const T> data, T pivot, std::span<T> out,
                        std::span<std::int32_t> counters, const core::QuickSelectConfig& cfg,
                        simt::LaunchOrigin origin) {
    // The literal Fig. 5 kernel: both sides written in one pass.  Placement
    // cursors live in global memory (counters[0] = left count, counters[1] =
    // right count); shared-atomic configurations behave like the
    // warp-aggregated global variant (one update per warp per side).
    const std::size_t n = data.size();
    if (out.size() != n) throw std::invalid_argument("out must match input size");
    if (counters.size() < 2) throw std::invalid_argument("need two cursors");
    const bool aggregate =
        cfg.warp_aggregation || cfg.atomic_space == simt::AtomicSpace::shared;
    const int grid = simt::suggest_grid(dev.arch(), n, cfg.block_dim, cfg.unroll);
    // lint-kernels: allow(R6) -- single-stream baseline, runs entirely on the default stream
    dev.launch(
        "bipartition",
        {.grid_dim = grid, .block_dim = cfg.block_dim, .origin = origin, .unroll = cfg.unroll},
        [&, n, pivot, aggregate](simt::BlockCtx& blk) {
            blk.warp_tiles(n, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                T elems[simt::kWarpSize];
                std::int32_t which[simt::kWarpSize];
                std::int32_t off[simt::kWarpSize];
                w.load(data, base, elems);
                simt::simd::bipartition_sides(elems, pivot, w.lanes(), which);
                w.add_instr(static_cast<std::uint64_t>(w.lanes()));
                w.fetch_add(simt::AtomicSpace::global, counters.subspan(0, 2), which, off,
                            aggregate, /*index_bits=*/1);
                if (aggregate) {
                    // Aggregated fetch_add hands each side lane-ordered
                    // consecutive offsets: the left side is a forward
                    // compress-store run, the right side (n - 1 - off) a
                    // reversed one.  Charges sum to the legacy
                    // lanes * sizeof(T) warp-contiguous write.
                    const std::uint32_t lmask =
                        simt::simd::cmp_lt_mask(elems, pivot, w.lanes());
                    const std::uint32_t lane_all =
                        w.lanes() >= 32 ? ~0u : ((1u << w.lanes()) - 1u);
                    const std::uint32_t rmask = lane_all & ~lmask;
                    if (lmask != 0) {
                        const int lo = std::countr_zero(lmask);
                        w.compress_store(out, static_cast<std::size_t>(off[lo]), lmask, elems);
                    }
                    if (rmask != 0) {
                        const int ro = std::countr_zero(rmask);
                        w.compress_store_rev(out, n - 1 - static_cast<std::size_t>(off[ro]),
                                             rmask, elems);
                    }
                } else {
                    // Per-lane global cursors: concurrent blocks interleave
                    // their fetch_adds, so offsets are not warp-contiguous
                    // and the scatter must stay a per-lane loop.
                    // lint-kernels: allow(R5)
                    for (int l = 0; l < w.lanes(); ++l) {
                        const auto o = which[l] == 0
                                           ? static_cast<std::size_t>(off[l])
                                           : n - 1 - static_cast<std::size_t>(off[l]);
                        blk.st(out, o, elems[l]);
                    }
                    // two write fronts, each warp-contiguous
                    w.block().counters().global_bytes_written +=
                        static_cast<std::uint64_t>(w.lanes()) * sizeof(T);
                }
            });
        });
}

template <typename T>
QuickSelectResult<T> quick_select(simt::Device& dev, std::span<const T> input, std::size_t rank,
                                  const core::QuickSelectConfig& cfg) {
    cfg.validate();
    const std::size_t n0 = input.size();
    if (n0 == 0 || rank >= n0) throw std::out_of_range("rank out of range");

    auto buf = dev.alloc<T>(n0);
    std::copy(input.begin(), input.end(), buf.data());
    dev.tracker().set_baseline();

    QuickSelectResult<T> res;
    const double t0 = dev.elapsed_ns();
    const std::uint64_t l0 = dev.launch_count();
    const bool shared_mode = cfg.atomic_space == simt::AtomicSpace::shared;

    for (std::size_t level = 0;; ++level) {
        const auto origin = level == 0 ? simt::LaunchOrigin::host : simt::LaunchOrigin::device;
        const std::size_t n = buf.size();
        if (n <= cfg.base_case_size) {
            bitonic::sort_on_device<T>(dev, buf.span(), n, origin, cfg.block_dim);
            res.value = buf[rank];
            break;
        }
        const T pivot = pivot_kernel<T>(dev, buf.span(), cfg, origin, level * 1009);

        auto totals = dev.alloc<std::int32_t>(kSides);
        const int grid = simt::suggest_grid(dev.arch(), n, cfg.block_dim, cfg.unroll);
        simt::DeviceBuffer<std::int32_t> block_counts;
        if (shared_mode) {
            block_counts = dev.alloc<std::int32_t>(static_cast<std::size_t>(grid) * kSides);
        } else {
            core::launch_memset32(dev, totals.span(), origin);
        }
        tripartition_count<T>(dev, buf.span(), pivot, totals.span(), block_counts.span(), cfg,
                              origin);
        if (shared_mode) {
            core::reduce_kernel(dev, block_counts.span(), grid, static_cast<int>(kSides),
                                totals.span(), /*keep_block_offsets=*/true, origin);
        }
        const auto smaller = static_cast<std::size_t>(totals[kSmaller]);
        const auto equal = static_cast<std::size_t>(totals[kEqual]);
        ++res.levels;

        std::int32_t side;
        std::size_t out_size;
        if (rank < smaller) {
            side = kSmaller;
            out_size = smaller;
        } else if (rank < smaller + equal) {
            res.value = pivot;
            res.equality_exit = true;
            break;
        } else {
            side = kLarger;
            out_size = static_cast<std::size_t>(totals[kLarger]);
            rank -= smaller + equal;
        }

        auto out = dev.alloc<T>(out_size);
        simt::DeviceBuffer<std::int32_t> cursor;
        if (!shared_mode) {
            cursor = dev.alloc<std::int32_t>(1);
            core::launch_memset32(dev, cursor.span(), origin);
        }
        extract_side<T>(dev, buf.span(), pivot, side, out.span(), block_counts.span(),
                        cursor.span(), cfg, origin, grid);
        buf = std::move(out);
    }

    res.sim_ns = dev.elapsed_ns() - t0;
    res.launches = dev.launch_count() - l0;
    res.aux_bytes = dev.tracker().peak_above_baseline();
    return res;
}

template QuickSelectResult<float> quick_select<float>(simt::Device&, std::span<const float>,
                                                      std::size_t,
                                                      const core::QuickSelectConfig&);
template QuickSelectResult<double> quick_select<double>(simt::Device&, std::span<const double>,
                                                        std::size_t,
                                                        const core::QuickSelectConfig&);
template void bipartition_kernel<float>(simt::Device&, std::span<const float>, float,
                                        std::span<float>, std::span<std::int32_t>,
                                        const core::QuickSelectConfig&, simt::LaunchOrigin);
template void bipartition_kernel<double>(simt::Device&, std::span<const double>, double,
                                         std::span<double>, std::span<std::int32_t>,
                                         const core::QuickSelectConfig&, simt::LaunchOrigin);

}  // namespace gpusel::baselines
