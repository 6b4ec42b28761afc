#include "core/sample_kernel.hpp"

#include <algorithm>
#include <vector>

#include "bitonic/bitonic.hpp"
#include "data/rng.hpp"

namespace gpusel::core {

template <typename T>
void draw_splitters(simt::BlockCtx& blk, std::span<const T> data, const SampleSelectConfig& cfg,
                    std::uint64_t seed_salt, std::span<T> splitters) {
    const std::size_t n = data.size();
    const auto s = static_cast<std::size_t>(cfg.effective_sample_size());
    const auto b = static_cast<std::size_t>(cfg.num_buckets);
    const std::size_t m = bitonic::next_pow2(s);
    auto sh = blk.shared_array<T>(m);

    // Random sample indices (with replacement, Sec. II-B); each thread
    // computes its index with a counter-based hash -- one
    // instruction-equivalent charge per sampled element.
    data::Xoshiro256 rng(cfg.seed ^ (seed_salt * 0x9e3779b97f4a7c15ULL));
    std::vector<std::size_t> idx(s);
    for (auto& i : idx) i = rng.bounded(n);
    blk.charge_instr(s);

    // Gather the sample into shared memory (scattered global reads).  The
    // block's own warps stride the sample, whatever grid it runs in.
    blk.warp_tiles_local(s, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
        T regs[simt::kWarpSize];
        w.gather(data, idx.data() + base, regs);
        for (int l = 0; l < w.lanes(); ++l) {
            blk.shared_st(sh, base + static_cast<std::size_t>(l), regs[l]);
        }
        w.touch_shared(static_cast<std::uint64_t>(w.lanes()) * sizeof(T));
    });

    bitonic::sort_in_shared(blk, sh, s);

    // Pick the i/b percentiles (i = 1..b-1) and publish them.
    for (std::size_t j = 1; j < b; ++j) {
        splitters[j - 1] = blk.shared_ld(sh, j * s / b);
    }
    blk.charge_shared((b - 1) * sizeof(T));
    blk.charge_global_write((b - 1) * sizeof(T));
    blk.sync();
}

template <typename T>
SearchTree<T> sample_splitters(simt::Device& dev, std::span<const T> data,
                               const SampleSelectConfig& cfg, simt::LaunchOrigin origin,
                               std::uint64_t seed_salt, int stream) {
    std::vector<T> splitters(static_cast<std::size_t>(cfg.num_buckets) - 1);
    dev.launch("sample",
               {.grid_dim = 1, .block_dim = cfg.block_dim, .origin = origin, .unroll = 1,
                .stream = stream < 0 ? cfg.stream : stream},
               [&](simt::BlockCtx& blk) {
                   draw_splitters<T>(blk, data, cfg, seed_salt, splitters);
               });
    return SearchTree<T>::build(std::move(splitters));
}

template void draw_splitters<float>(simt::BlockCtx&, std::span<const float>,
                                    const SampleSelectConfig&, std::uint64_t, std::span<float>);
template void draw_splitters<double>(simt::BlockCtx&, std::span<const double>,
                                     const SampleSelectConfig&, std::uint64_t, std::span<double>);
template void draw_splitters<ArgPair>(simt::BlockCtx&, std::span<const ArgPair>,
                                      const SampleSelectConfig&, std::uint64_t,
                                      std::span<ArgPair>);
template SearchTree<float> sample_splitters<float>(simt::Device&, std::span<const float>,
                                                   const SampleSelectConfig&, simt::LaunchOrigin,
                                                   std::uint64_t, int);
template SearchTree<double> sample_splitters<double>(simt::Device&, std::span<const double>,
                                                     const SampleSelectConfig&, simt::LaunchOrigin,
                                                     std::uint64_t, int);
template SearchTree<ArgPair> sample_splitters<ArgPair>(simt::Device&, std::span<const ArgPair>,
                                                       const SampleSelectConfig&,
                                                       simt::LaunchOrigin, std::uint64_t, int);

}  // namespace gpusel::core
