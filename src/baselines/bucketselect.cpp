#include "baselines/bucketselect.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bitonic/bitonic.hpp"
#include "core/count_kernel.hpp"
#include "core/reduce_kernel.hpp"
#include "simt/timing.hpp"

namespace gpusel::baselines {

void BucketSelectConfig::validate() const {
    if (num_buckets < 2 || num_buckets > 4096) {
        throw std::invalid_argument("num_buckets must be in [2, 4096]");
    }
    if (block_dim <= 0 || block_dim % simt::kWarpSize != 0 || block_dim > 1024) {
        throw std::invalid_argument("block_dim must be a positive multiple of 32, at most 1024");
    }
    if (base_case_size < 2 || base_case_size > 4096) {
        throw std::invalid_argument("base_case_size must be in [2, 4096]");
    }
}

namespace {

/// Arithmetic bucket index for uniform value-range splitting.
template <typename T>
std::int32_t value_bucket(T x, T lo, double inv_width, std::int32_t b) noexcept {
    const double rel = (static_cast<double>(x) - static_cast<double>(lo)) * inv_width;
    auto i = static_cast<std::int32_t>(rel);
    return std::clamp(i, std::int32_t{0}, b - 1);
}

/// Min/max reduction kernel (needed to define the value range).
template <typename T>
std::pair<T, T> minmax_kernel(simt::Device& dev, std::span<const T> data,
                              const BucketSelectConfig& cfg, simt::LaunchOrigin origin) {
    const std::size_t n = data.size();
    const int grid = simt::suggest_grid(dev.arch(), n, cfg.block_dim);
    std::vector<T> lo(static_cast<std::size_t>(grid), data[0]);
    std::vector<T> hi(static_cast<std::size_t>(grid), data[0]);
    // lint-kernels: allow(R6) -- single-stream baseline, runs entirely on the default stream
    dev.launch("minmax", {.grid_dim = grid, .block_dim = cfg.block_dim, .origin = origin},
               [&, n](simt::BlockCtx& blk) {
                   T bl = data[0];
                   T bh = data[0];
                   blk.warp_tiles(n, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                       T elems[simt::kWarpSize];
                       w.load(data, base, elems);
                       for (int l = 0; l < w.lanes(); ++l) {
                           bl = std::min(bl, elems[l]);
                           bh = std::max(bh, elems[l]);
                       }
                       w.add_instr(2 * static_cast<std::uint64_t>(w.lanes()));
                   });
                   lo[static_cast<std::size_t>(blk.block_idx())] = bl;
                   hi[static_cast<std::size_t>(blk.block_idx())] = bh;
                   blk.charge_global_write(2 * sizeof(T));
               });
    // Final reduction of the per-block partials (tiny second kernel).
    T l = lo[0];
    T h = hi[0];
    // lint-kernels: allow(R6) -- single-stream baseline, runs entirely on the default stream
    dev.launch("minmax_final", {.grid_dim = 1, .block_dim = 32, .origin = origin},
               [&](simt::BlockCtx& blk) {
                   for (std::size_t i = 0; i < lo.size(); ++i) {
                       l = std::min(l, lo[i]);
                       h = std::max(h, hi[i]);
                   }
                   blk.charge_global_read(2 * lo.size() * sizeof(T));
                   blk.charge_instr(2 * lo.size());
               });
    return {l, h};
}

/// Histogram over uniform value-range buckets.
template <typename T>
int range_count(simt::Device& dev, std::span<const T> data, T lo, double inv_width,
                std::span<std::int32_t> totals, std::span<std::int32_t> block_counts,
                const BucketSelectConfig& cfg, simt::LaunchOrigin origin) {
    const std::size_t n = data.size();
    const auto b = static_cast<std::int32_t>(cfg.num_buckets);
    const bool shared_mode = cfg.atomic_space == simt::AtomicSpace::shared;
    const int grid = simt::suggest_grid(dev.arch(), n, cfg.block_dim, cfg.unroll);
    int bits = 0;
    while ((1 << bits) < cfg.num_buckets) ++bits;
    // lint-kernels: allow(R6) -- single-stream baseline, runs entirely on the default stream
    dev.launch(
        "bucket_count",
        {.grid_dim = grid, .block_dim = cfg.block_dim, .origin = origin, .unroll = cfg.unroll},
        [&, n, lo, inv_width, b, bits, shared_mode](simt::BlockCtx& blk) {
            std::span<std::int32_t> counters;
            std::span<std::int32_t> sh;
            if (shared_mode) {
                sh = blk.shared_array<std::int32_t>(static_cast<std::size_t>(b));
                std::fill(sh.begin(), sh.end(), 0);
                blk.charge_shared(static_cast<std::size_t>(b) * sizeof(std::int32_t));
                blk.sync();
                counters = sh;
            } else {
                counters = totals;
            }
            const auto space = shared_mode ? simt::AtomicSpace::shared : simt::AtomicSpace::global;
            blk.warp_tiles(n, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                T elems[simt::kWarpSize];
                std::int32_t bucket[simt::kWarpSize];
                w.load(data, base, elems);
                for (int l = 0; l < w.lanes(); ++l) {
                    bucket[l] = value_bucket(elems[l], lo, inv_width, b);
                }
                // the paper notes this index arithmetic is much simpler
                // than the search-tree traversal: ~3 instructions
                w.add_instr(3 * static_cast<std::uint64_t>(w.lanes()));
                if (cfg.warp_aggregation) {
                    w.atomic_add_aggregated(space, counters, bucket, bits);
                } else {
                    w.atomic_add(space, counters, bucket);
                }
            });
            if (shared_mode) {
                blk.sync();
                const auto base =
                    static_cast<std::size_t>(blk.block_idx()) * static_cast<std::size_t>(b);
                for (std::size_t i = 0; i < static_cast<std::size_t>(b); ++i) {
                    blk.st(block_counts, base + i, blk.shared_ld(sh, i));
                }
                blk.charge_shared(static_cast<std::size_t>(b) * sizeof(std::int32_t));
                blk.charge_global_write(static_cast<std::size_t>(b) * sizeof(std::int32_t));
            }
        });
    return grid;
}

/// Extraction of one value-range bucket (bucket index recomputed
/// arithmetically -- BucketSelect stores no oracles).
template <typename T>
void range_filter(simt::Device& dev, std::span<const T> data, T lo, double inv_width,
                  std::int32_t bucket, std::span<T> out,
                  std::span<const std::int32_t> block_offsets, std::span<std::int32_t> cursor,
                  const BucketSelectConfig& cfg, simt::LaunchOrigin origin, int grid_dim) {
    const std::size_t n = data.size();
    const auto b = static_cast<std::int32_t>(cfg.num_buckets);
    const bool shared_mode = cfg.atomic_space == simt::AtomicSpace::shared;
    // lint-kernels: allow(R6) -- single-stream baseline, runs entirely on the default stream
    dev.launch(
        "bucket_filter",
        {.grid_dim = grid_dim, .block_dim = cfg.block_dim, .origin = origin,
         .unroll = cfg.unroll},
        [&, n, lo, inv_width, bucket, b, shared_mode](simt::BlockCtx& blk) {
            std::int32_t sh_cursor = 0;
            std::span<std::int32_t> ctr;
            simt::AtomicSpace space;
            if (shared_mode) {
                const auto idx = static_cast<std::size_t>(blk.block_idx()) *
                                     static_cast<std::size_t>(b) +
                                 static_cast<std::size_t>(bucket);
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
                for (int l = 0; l < w.lanes(); ++l) {
                    pred[l] = value_bucket(elems[l], lo, inv_width, b) == bucket;
                }
                w.add_instr(3 * static_cast<std::uint64_t>(w.lanes()));
                // compaction offsets: always ballot-aggregated (see filter)
                w.fetch_add(space, ctr, zeros, off, /*aggregated=*/true, 1, pred);
                std::uint64_t matched = 0;
                for (int l = 0; l < w.lanes(); ++l) {
                    if (pred[l]) {
                        blk.st(out, static_cast<std::size_t>(off[l]), elems[l]);
                        ++matched;
                    }
                }
                w.block().counters().global_bytes_written += matched * sizeof(T);
            });
        });
}

}  // namespace

template <typename T>
BucketSelectResult<T> bucket_select(simt::Device& dev, std::span<const T> input, std::size_t rank,
                                    const BucketSelectConfig& cfg) {
    cfg.validate();
    const std::size_t n0 = input.size();
    if (n0 == 0 || rank >= n0) throw std::out_of_range("rank out of range");

    auto buf = dev.alloc<T>(n0);
    std::copy(input.begin(), input.end(), buf.data());

    BucketSelectResult<T> res;
    const double t0 = dev.elapsed_ns();
    const std::uint64_t l0 = dev.launch_count();
    const auto b = static_cast<std::size_t>(cfg.num_buckets);
    const bool shared_mode = cfg.atomic_space == simt::AtomicSpace::shared;

    for (std::size_t level = 0;; ++level) {
        const auto origin = level == 0 ? simt::LaunchOrigin::host : simt::LaunchOrigin::device;
        const std::size_t n = buf.size();
        if (n <= cfg.base_case_size) {
            bitonic::sort_on_device<T>(dev, buf.span(), n, origin, cfg.block_dim);
            res.value = buf[rank];
            break;
        }
        if (level > 64) {
            // The value range halves at least 8x per level; for IEEE floats
            // this cannot recur 64 times without separating the elements.
            throw std::logic_error("bucket_select: range refinement stalled");
        }

        const auto [lo, hi] = minmax_kernel<T>(dev, buf.span(), cfg, origin);
        if (!(lo < hi)) {  // all elements equal (or range underflow)
            res.value = lo;
            break;
        }
        const double width = (static_cast<double>(hi) - static_cast<double>(lo)) /
                             static_cast<double>(cfg.num_buckets);
        const double inv_width = 1.0 / width;

        auto totals = dev.alloc<std::int32_t>(b);
        const int grid = simt::suggest_grid(dev.arch(), n, cfg.block_dim, cfg.unroll);
        simt::DeviceBuffer<std::int32_t> block_counts;
        if (shared_mode) {
            block_counts = dev.alloc<std::int32_t>(static_cast<std::size_t>(grid) * b);
        } else {
            core::launch_memset32(dev, totals.span(), origin);
        }
        range_count<T>(dev, buf.span(), lo, inv_width, totals.span(), block_counts.span(), cfg,
                       origin);
        if (shared_mode) {
            core::reduce_kernel(dev, block_counts.span(), grid, cfg.num_buckets, totals.span(),
                                /*keep_block_offsets=*/true, origin);
        }
        auto prefix = dev.alloc<std::int32_t>(b + 1);
        const std::int32_t bucket =
            core::select_bucket_kernel(dev, totals.span(), prefix.span(), rank, origin);
        const auto ub = static_cast<std::size_t>(bucket);
        ++res.levels;

        const auto bucket_size = static_cast<std::size_t>(totals[ub]);
        auto out = dev.alloc<T>(bucket_size);
        simt::DeviceBuffer<std::int32_t> cursor;
        if (!shared_mode) {
            cursor = dev.alloc<std::int32_t>(1);
            core::launch_memset32(dev, cursor.span(), origin);
        }
        range_filter<T>(dev, buf.span(), lo, inv_width, bucket, out.span(), block_counts.span(),
                        cursor.span(), cfg, origin, grid);
        rank -= static_cast<std::size_t>(prefix[ub]);
        buf = std::move(out);
    }

    res.sim_ns = dev.elapsed_ns() - t0;
    res.launches = dev.launch_count() - l0;
    return res;
}

template BucketSelectResult<float> bucket_select<float>(simt::Device&, std::span<const float>,
                                                        std::size_t, const BucketSelectConfig&);
template BucketSelectResult<double> bucket_select<double>(simt::Device&, std::span<const double>,
                                                          std::size_t, const BucketSelectConfig&);

}  // namespace gpusel::baselines
