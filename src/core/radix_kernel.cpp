#include "core/radix_kernel.hpp"

#include <algorithm>
#include <bit>

#include "simt/timing.hpp"

namespace gpusel::core {

template <typename T>
int radix_count(simt::Device& dev, std::span<const T> data, int shift,
                std::span<std::int32_t> totals, std::span<std::int32_t> block_counts,
                const RadixLaunchParams& p, simt::LaunchOrigin origin) {
    const std::size_t n = data.size();
    const bool shared_mode = p.atomic_space == simt::AtomicSpace::shared;
    const int grid = simt::suggest_grid(dev.arch(), n, p.block_dim, p.unroll);
    dev.launch(
        "radix_count",
        {.grid_dim = grid, .block_dim = p.block_dim, .origin = origin, .unroll = p.unroll,
         .stream = p.stream},
        [&, n, shift, shared_mode](simt::BlockCtx& blk) {
            std::span<std::int32_t> counters;
            std::span<std::int32_t> sh;
            if (shared_mode) {
                sh = blk.shared_array<std::int32_t>(kRadixBins);
                std::fill(sh.begin(), sh.end(), 0);
                blk.charge_shared(kRadixBins * sizeof(std::int32_t));
                blk.sync();
                counters = sh;
            } else {
                counters = totals.first(kRadixBins);
            }
            const auto space = shared_mode ? simt::AtomicSpace::shared : simt::AtomicSpace::global;
            blk.warp_tiles(n, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                T elems[simt::kWarpSize];
                std::int32_t digit[simt::kWarpSize];
                w.load(data, base, elems);
                for (int l = 0; l < w.lanes(); ++l) digit[l] = radix_digit_of(elems[l], shift);
                // Digit extraction (shift+mask) and the histogram index.
                w.add_instr(2 * static_cast<std::uint64_t>(w.lanes()));
                if (p.warp_aggregation) {
                    w.atomic_add_aggregated(space, counters, digit, kRadixDigitBits);
                } else {
                    w.atomic_add(space, counters, digit);
                }
            });
            if (shared_mode) {
                blk.sync();
                // [block][bin]: a grid x kRadixBins matrix, fed to
                // reduce_kernel unchanged.
                const auto out_base = static_cast<std::size_t>(blk.block_idx()) * kRadixBins;
                for (std::size_t i = 0; i < kRadixBins; ++i) {
                    blk.st(block_counts, out_base + i, blk.shared_ld(sh, i));
                }
                blk.charge_shared(kRadixBins * sizeof(std::int32_t));
                blk.charge_global_write(kRadixBins * sizeof(std::int32_t));
            }
        });
    return grid;
}

template <typename T>
void radix_filter(simt::Device& dev, std::span<const T> data, int shift, std::int32_t digit,
                  std::span<T> out, std::span<const std::int32_t> block_offsets,
                  std::span<std::int32_t> cursor, const RadixLaunchParams& p,
                  simt::LaunchOrigin origin, int grid_dim) {
    const std::size_t n = data.size();
    const bool shared_mode = p.atomic_space == simt::AtomicSpace::shared;
    dev.launch(
        "radix_filter",
        {.grid_dim = grid_dim, .block_dim = p.block_dim, .origin = origin, .unroll = p.unroll,
         .stream = p.stream},
        [&, n, shift, digit, shared_mode](simt::BlockCtx& blk) {
            std::int32_t sh_cursor = 0;
            std::span<std::int32_t> ctr;
            simt::AtomicSpace space;
            if (shared_mode) {
                const auto idx = static_cast<std::size_t>(blk.block_idx()) * kRadixBins +
                                 static_cast<std::size_t>(digit);
                sh_cursor = blk.ld(block_offsets, idx);
                blk.charge_global_read(sizeof(std::int32_t));
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
                std::uint32_t mask = 0;
                for (int l = 0; l < w.lanes(); ++l) {
                    pred[l] = radix_digit_of(elems[l], shift) == digit;
                    if (pred[l]) mask |= 1u << l;
                }
                w.add_instr(2 * static_cast<std::uint64_t>(w.lanes()));
                // Compaction offsets are always ballot-aggregated, so each
                // warp's matches land on consecutive slots: one masked
                // compress-store tile instead of a per-lane scatter loop.
                w.fetch_add(space, ctr, zeros, off, /*aggregated=*/true, 1, pred);
                if (mask != 0) {
                    w.compress_store(out, static_cast<std::size_t>(off[std::countr_zero(mask)]),
                                     mask, elems);
                }
            });
        });
}

#define GPUSEL_RADIX_KERNEL_INST(T)                                                            \
    template int radix_count<T>(simt::Device&, std::span<const T>, int, std::span<std::int32_t>, \
                                std::span<std::int32_t>, const RadixLaunchParams&,             \
                                simt::LaunchOrigin);                                           \
    template void radix_filter<T>(simt::Device&, std::span<const T>, int, std::int32_t,        \
                                  std::span<T>, std::span<const std::int32_t>,                 \
                                  std::span<std::int32_t>, const RadixLaunchParams&,           \
                                  simt::LaunchOrigin, int);

GPUSEL_RADIX_KERNEL_INST(float)
GPUSEL_RADIX_KERNEL_INST(double)
#undef GPUSEL_RADIX_KERNEL_INST

}  // namespace gpusel::core
