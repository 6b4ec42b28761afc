#include "core/reduce_kernel.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace gpusel::core {

void reduce_kernel(simt::Device& dev, std::span<std::int32_t> block_counts, int grid_dim,
                   int num_buckets, std::span<std::int32_t> totals, bool keep_block_offsets,
                   simt::LaunchOrigin origin, int stream, RankLocate* locate) {
    const auto g = static_cast<std::size_t>(grid_dim);
    const auto b = static_cast<std::size_t>(num_buckets);
    if (block_counts.size() < g * b) throw std::invalid_argument("block_counts too small");
    if (totals.size() != b) throw std::invalid_argument("totals size mismatch");

    // One block per strip of kStrip adjacent buckets, one bucket per lane;
    // warp w of a block owns the block rows [first_row(w), first_row(w + 1)).
    constexpr auto kStrip = static_cast<std::size_t>(simt::kWarpSize);
    const std::size_t warps = std::min(g, kStrip);
    const auto first_row = [g, warps](std::size_t w) { return w * g / warps; };
    const std::span<const std::int32_t> counts = block_counts;
    dev.launch(keep_block_offsets ? "reduce_offsets" : "reduce",
               {.grid_dim = static_cast<int>((b + kStrip - 1) / kStrip),
                .block_dim = static_cast<int>(warps * kStrip),
                .origin = origin,
                .stream = stream},
               [&, g, b, warps, keep_block_offsets](simt::BlockCtx& blk) {
                   const std::size_t first = static_cast<std::size_t>(blk.block_idx()) * kStrip;
                   const std::size_t width = std::min(kStrip, b - first);
                   const auto lanes = static_cast<int>(width);
                   // The lane registers: row r's strip segment at r * width.
                   std::vector<std::int32_t> regs(g * width);
                   // Per-run column sums, [run][lane]; the scan turns them
                   // into run bases in place.
                   auto runs = blk.shared_array<std::int32_t>(warps * width);

                   blk.each_warp(lanes, [&](simt::WarpCtx& w, int wi) {
                       const auto run = static_cast<std::size_t>(wi);
                       const std::size_t lo = first_row(run);
                       const std::size_t hi = first_row(run + 1);
                       std::int32_t sum[simt::kWarpSize] = {};
                       for (std::size_t r = lo; r < hi; ++r) {
                           std::int32_t* seg = regs.data() + r * width;
                           w.load(counts, r * b + first, seg);
                           for (std::size_t l = 0; l < width; ++l) sum[l] += seg[l];
                       }
                       for (std::size_t l = 0; l < width; ++l) {
                           blk.shared_st(runs, run * width + l, sum[l]);
                       }
                       w.add_instr((hi - lo) * width);
                       w.touch_shared(width * sizeof(std::int32_t));
                   });
                   blk.sync();

                   // Column scan over the run sums: run bases in place, and
                   // the strip's totals in one coalesced store.
                   for (std::size_t l = 0; l < width; ++l) {
                       std::int32_t running = 0;
                       for (std::size_t run = 0; run < warps; ++run) {
                           const std::int32_t s = blk.shared_ld(runs, run * width + l);
                           blk.shared_st(runs, run * width + l, running);
                           running += s;
                       }
                       blk.st(totals, first + l, running);
                   }
                   blk.charge_shared(2 * warps * width * sizeof(std::int32_t));
                   blk.charge_instr(warps * width);
                   blk.charge_global_write(width * sizeof(std::int32_t));
                   if (!keep_block_offsets) return;
                   blk.sync();

                   blk.each_warp(lanes, [&](simt::WarpCtx& w, int wi) {
                       const auto run = static_cast<std::size_t>(wi);
                       const std::size_t lo = first_row(run);
                       const std::size_t hi = first_row(run + 1);
                       std::int32_t running[simt::kWarpSize];
                       for (std::size_t l = 0; l < width; ++l) {
                           running[l] = blk.shared_ld(runs, run * width + l);
                       }
                       w.touch_shared(width * sizeof(std::int32_t));
                       for (std::size_t r = lo; r < hi; ++r) {
                           const std::int32_t* seg = regs.data() + r * width;
                           std::int32_t offsets[simt::kWarpSize];
                           for (std::size_t l = 0; l < width; ++l) {
                               offsets[l] = running[l];
                               running[l] += seg[l];
                           }
                           w.store(block_counts, r * b + first, offsets);
                       }
                       w.add_instr((hi - lo) * width);
                   });
               },
               locate_epilogue(totals, locate));
}

namespace {

/// The locate, run by one block: the exclusive prefix sum r_i over the
/// column sums of `totals` (rows of b = prefix.size() - 1 counts) into
/// `prefix` and the bucket containing `rank`, i.e. the largest i with
/// prefix[i] <= rank.
std::int32_t locate_rank(simt::BlockCtx& blk, std::span<const std::int32_t> totals,
                         std::span<std::int32_t> prefix, std::size_t rank) {
    const std::size_t b = prefix.size() - 1;
    const std::size_t rows = totals.size() / b;
    std::int32_t running = 0;
    for (std::size_t i = 0; i < b; ++i) {
        blk.st(prefix, i, running);
        for (std::size_t r = 0; r < rows; ++r) running += blk.ld(totals, r * b + i);
    }
    blk.st(prefix, b, running);
    blk.charge_global_read(totals.size() * sizeof(std::int32_t));
    blk.charge_global_write((b + 1) * sizeof(std::int32_t));
    blk.charge_instr(totals.size());
    // lower_bound over the prefix sums
    std::size_t lo = 0;
    for (std::size_t i = 0; i < b; ++i) {
        if (static_cast<std::size_t>(blk.ld(prefix, i)) <= rank) lo = i;
    }
    blk.charge_instr(b);
    return static_cast<std::int32_t>(lo);
}

}  // namespace

simt::Device::KernelFn locate_epilogue(std::span<const std::int32_t> totals, RankLocate* loc) {
    if (loc == nullptr) return {};
    if (loc->prefix.size() < 2 || totals.empty() ||
        totals.size() % (loc->prefix.size() - 1) != 0) {
        throw std::invalid_argument("prefix size mismatch");
    }
    return [totals, loc](simt::BlockCtx& blk) {
        loc->bucket = locate_rank(blk, totals, loc->prefix, loc->rank);
    };
}

std::int32_t select_bucket_kernel(simt::Device& dev, std::span<const std::int32_t> totals,
                                  std::span<std::int32_t> prefix, std::size_t rank,
                                  simt::LaunchOrigin origin, int stream) {
    RankLocate loc{.prefix = prefix, .rank = rank};
    // The epilogue's body as a one-block launch of its own.
    dev.launch("select_bucket",
               {.grid_dim = 1, .block_dim = 32, .origin = origin, .stream = stream},
               locate_epilogue(totals, &loc));
    return loc.bucket;
}

}  // namespace gpusel::core
