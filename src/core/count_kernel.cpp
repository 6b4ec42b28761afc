#include "core/count_kernel.hpp"

#include <stdexcept>

#include "simt/simd.hpp"
#include "simt/timing.hpp"

namespace gpusel::core {

void launch_fill32(simt::Device& dev, std::span<std::int32_t> buf, std::int32_t value,
                   simt::LaunchOrigin origin, int stream) {
    const int grid = simt::suggest_grid(dev.arch(), buf.size(), 256);
    dev.launch("memset", {.grid_dim = grid, .block_dim = 256, .origin = origin, .stream = stream},
               [buf, value](simt::BlockCtx& blk) {
                   blk.warp_tiles(buf.size(), [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                       std::int32_t vals[simt::kWarpSize];
                       for (int l = 0; l < w.lanes(); ++l) vals[l] = value;
                       w.store(buf, base, vals);
                   });
               });
}

namespace {

/// Stages the search tree (node values + comparison flags) into block
/// shared memory, charging the per-block global read.
template <typename T>
struct SharedTree {
    std::span<const T> nodes;
    std::span<const std::uint8_t> leq;
    /// Host-side int32 mirror of `leq` for the vectorized traversal
    /// (uncharged scratch: the simulated shared reads stay the uint8 ones).
    const std::int32_t* leq32;
    std::int32_t height;
    std::int32_t num_buckets;
};

template <typename T>
SharedTree<T> stage_tree(simt::BlockCtx& blk, const SearchTree<T>& tree) {
    const std::size_t m = tree.nodes.size();
    auto sh_nodes = blk.shared_array<T>(m);
    auto sh_leq = blk.shared_array<std::uint8_t>(m);
    std::copy(tree.nodes.begin(), tree.nodes.end(), sh_nodes.begin());
    std::copy(tree.leq.begin(), tree.leq.end(), sh_leq.begin());
    blk.charge_global_read(tree.device_bytes());
    blk.charge_shared(tree.device_bytes());
    blk.sync();
    return {sh_nodes, sh_leq, tree.leq32.data(), tree.height, tree.num_buckets};
}

/// Search-tree traversal for one warp tile (the Fig. 4 loop), all lanes
/// advanced level by level through the simd lane-vector layer.  Charges
/// `height` instruction-equivalents and the shared-memory node reads per
/// lane -- per tile, identically for every execution tier.
template <typename T>
void traverse_tile(simt::WarpCtx& w, const SharedTree<T>& t, const T* elems,
                   std::int32_t* bucket) {
    simt::simd::traverse_tree(t.nodes.data(), t.leq32, t.height, elems, w.lanes(), bucket);
    const auto lanes = static_cast<std::uint64_t>(w.lanes());
    const auto h = static_cast<std::uint64_t>(t.height);
    w.add_instr(lanes * h);
    w.touch_shared(lanes * h * (sizeof(T) + 1));
}

}  // namespace

template <typename T>
int count_kernel(simt::Device& dev, std::span<const T> data, const SearchTree<T>& tree,
                 std::span<std::uint8_t> oracles, std::span<std::int32_t> totals,
                 std::span<std::int32_t> block_counts, const SampleSelectConfig& cfg,
                 simt::LaunchOrigin origin, int stream, RankLocate* locate) {
    const std::size_t n = data.size();
    const auto b = static_cast<std::size_t>(tree.num_buckets);
    const bool shared_mode = cfg.atomic_space == simt::AtomicSpace::shared;
    const bool write_oracles = !oracles.empty();
    if (write_oracles && oracles.size() != n) {
        throw std::invalid_argument("oracle buffer size mismatch");
    }
    const int grid = simt::suggest_grid(dev.arch(), n, cfg.block_dim, cfg.unroll);
    if (shared_mode &&
        block_counts.size() < static_cast<std::size_t>(grid) * b) {
        throw std::invalid_argument("block_counts too small for grid");
    }
    if (!shared_mode && totals.size() != b) {
        throw std::invalid_argument("totals buffer size mismatch");
    }
    if (shared_mode && locate != nullptr) {
        throw std::invalid_argument("count_kernel: shared-mode totals are located by the reduce");
    }

    dev.launch(
        write_oracles ? "count" : "count_nowrite",
        {.grid_dim = grid, .block_dim = cfg.block_dim, .origin = origin, .unroll = cfg.unroll,
         .stream = stream < 0 ? cfg.stream : stream},
        [&, n, b](simt::BlockCtx& blk) {
            const SharedTree<T> t = stage_tree(blk, tree);

            std::span<std::int32_t> counters;
            std::span<std::int32_t> sh_counters;
            if (shared_mode) {
                sh_counters = blk.shared_array<std::int32_t>(b);
                std::fill(sh_counters.begin(), sh_counters.end(), 0);
                blk.charge_shared(b * sizeof(std::int32_t));
                blk.sync();
                counters = sh_counters;
            } else {
                counters = totals;
            }
            const auto space =
                shared_mode ? simt::AtomicSpace::shared : simt::AtomicSpace::global;

            // One warp revisits the array every `stride` elements; with the
            // grid capped at 2 blocks/SM that stride is far beyond any
            // prefetcher's reach, so hint the next tile explicitly (pure
            // host-side latency hiding, no simulated events involved).
            const std::size_t stride = static_cast<std::size_t>(grid) *
                                       static_cast<std::size_t>(cfg.block_dim) *
                                       static_cast<std::size_t>(std::max(1, cfg.unroll));
            blk.warp_tiles(n, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                T elems[simt::kWarpSize];
                std::int32_t bucket[simt::kWarpSize];
                if (base + stride < n) {
                    __builtin_prefetch(data.data() + base + stride);
                    __builtin_prefetch(data.data() + base + stride + 16);
                    if (write_oracles) __builtin_prefetch(oracles.data() + base + stride, 1);
                }
                w.load(data, base, elems);
                traverse_tile(w, t, elems, bucket);
                if (write_oracles) {
                    std::uint8_t by[simt::kWarpSize];
                    simt::simd::pack_low_bytes(bucket, w.lanes(), by);
                    w.store(oracles, base, by);
                }
                if (cfg.warp_aggregation) {
                    w.atomic_add_aggregated(space, counters, bucket, tree.height);
                } else {
                    w.atomic_add(space, counters, bucket);
                }
            });

            if (shared_mode) {
                // Publish the block-local partial counts (step 1 of the
                // Sec. IV-G hierarchy).
                blk.sync();
                const auto base = static_cast<std::size_t>(blk.block_idx()) * b;
                for (std::size_t i = 0; i < b; ++i) {
                    blk.st(block_counts, base + i, blk.shared_ld(sh_counters, i));
                }
                blk.charge_shared(b * sizeof(std::int32_t));
                blk.charge_global_write(b * sizeof(std::int32_t));
            }
        },
        locate_epilogue(totals, locate));
    return grid;
}

template int count_kernel<float>(simt::Device&, std::span<const float>, const SearchTree<float>&,
                                 std::span<std::uint8_t>, std::span<std::int32_t>,
                                 std::span<std::int32_t>, const SampleSelectConfig&,
                                 simt::LaunchOrigin, int, RankLocate*);
template int count_kernel<double>(simt::Device&, std::span<const double>,
                                  const SearchTree<double>&, std::span<std::uint8_t>,
                                  std::span<std::int32_t>, std::span<std::int32_t>,
                                  const SampleSelectConfig&, simt::LaunchOrigin, int,
                                  RankLocate*);
template int count_kernel<ArgPair>(simt::Device&, std::span<const ArgPair>,
                                   const SearchTree<ArgPair>&, std::span<std::uint8_t>,
                                   std::span<std::int32_t>, std::span<std::int32_t>,
                                   const SampleSelectConfig&, simt::LaunchOrigin, int,
                                   RankLocate*);

}  // namespace gpusel::core
