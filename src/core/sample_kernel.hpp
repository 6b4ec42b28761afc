#pragma once
// The `sample` kernel (Sec. IV-B a): loads a random sample of the input
// into shared memory, sorts it with the bitonic sorting network, picks the
// i/b percentiles as splitters and publishes them (here: as a built
// SearchTree, including the duplicate-splitter equality buckets).  Its
// deterministic sibling, the regular sample of sorted tiles, gives the
// sharded merge its splitter candidates (docs/sharding.md).

#include <algorithm>
#include <span>

#include "bitonic/bitonic.hpp"
#include "core/config.hpp"
#include "core/searchtree.hpp"
#include "simt/device.hpp"

namespace gpusel::core {

/// The sample kernel's body, run by one block of any width: draws the
/// sample indices from an RNG keyed by cfg.seed and `seed_salt`, gathers
/// them into shared memory, sorts them and writes the b - 1 splitters into
/// `splitters`.  The standalone `sample` launch and the grid epilogue of a
/// linear descent's filter (core/pipeline.hpp) both run it, so the same
/// data and salt give the same splitters and the same counters.
template <typename T>
void draw_splitters(simt::BlockCtx& blk, std::span<const T> data, const SampleSelectConfig& cfg,
                    std::uint64_t seed_salt, std::span<T> splitters);

/// Runs the single-block sample kernel on `dev` and returns the splitter
/// search tree.  `seed_salt` decorrelates the sample across recursion
/// levels and repetitions.  `stream` overrides the launch stream; the
/// default -1 keeps cfg.stream.
template <typename T>
[[nodiscard]] SearchTree<T> sample_splitters(simt::Device& dev, std::span<const T> data,
                                             const SampleSelectConfig& cfg,
                                             simt::LaunchOrigin origin,
                                             std::uint64_t seed_salt = 0, int stream = -1);

/// Shape of the regular sample of sorted tiles over an n-element input:
/// tiles of bitonic::kMaxSortSize elements (the last one ragged), each
/// contributing s_t = min(per_tile, n_t) elements of its sorted order, at
/// ranks min(n_t, (i + 1) * w_t) - 1 for i < s_t with the rank stride
/// w_t = ceil(n_t / (s_t + 1)).  Tile t's samples sit at slot t * per_tile
/// (per_tile <= kMaxSortSize, so only the last tile can fall short).
struct TileSample {
    std::size_t n = 0;
    std::size_t per_tile = 0;

    [[nodiscard]] std::size_t tiles() const noexcept {
        return (n + bitonic::kMaxSortSize - 1) / bitonic::kMaxSortSize;
    }
    [[nodiscard]] std::size_t length(std::size_t t) const noexcept {
        return std::min(bitonic::kMaxSortSize, n - t * bitonic::kMaxSortSize);
    }
    [[nodiscard]] std::size_t samples(std::size_t t) const noexcept {
        return std::min(per_tile, length(t));
    }
    [[nodiscard]] std::size_t stride(std::size_t t) const noexcept {
        const std::size_t s = samples(t);
        return (length(t) + s) / (s + 1);
    }
    [[nodiscard]] std::size_t rank(std::size_t t, std::size_t i) const noexcept {
        return std::min(length(t), (i + 1) * stride(t)) - 1;
    }
    /// All tiles' samples: the length of the output span.
    [[nodiscard]] std::size_t total() const noexcept {
        const std::size_t t = tiles();
        return t == 0 ? 0 : (t - 1) * per_tile + samples(t - 1);
    }
};

/// One `sample` launch of one block per tile (parallel sorting by regular
/// sampling; Deterministic Sample Sort, PAPERS.md): each block loads its
/// tile into shared memory, sorts it there with the Sec. IV-D bitonic
/// network and writes only the tile's regular sample (TileSample) into
/// `out`, which holds shape.total() elements.  The sorted tile is not
/// written back.
template <typename T>
void sample_sorted_tiles(simt::Device& dev, std::span<const T> data, const TileSample& shape,
                         std::span<T> out, simt::LaunchOrigin origin, int stream);

extern template void draw_splitters<float>(simt::BlockCtx&, std::span<const float>,
                                           const SampleSelectConfig&, std::uint64_t,
                                           std::span<float>);
extern template void draw_splitters<double>(simt::BlockCtx&, std::span<const double>,
                                            const SampleSelectConfig&, std::uint64_t,
                                            std::span<double>);
extern template void draw_splitters<ArgPair>(simt::BlockCtx&, std::span<const ArgPair>,
                                             const SampleSelectConfig&, std::uint64_t,
                                             std::span<ArgPair>);
extern template SearchTree<float> sample_splitters<float>(simt::Device&, std::span<const float>,
                                                          const SampleSelectConfig&,
                                                          simt::LaunchOrigin, std::uint64_t, int);
extern template SearchTree<double> sample_splitters<double>(simt::Device&, std::span<const double>,
                                                            const SampleSelectConfig&,
                                                            simt::LaunchOrigin, std::uint64_t,
                                                            int);
extern template SearchTree<ArgPair> sample_splitters<ArgPair>(simt::Device&,
                                                              std::span<const ArgPair>,
                                                              const SampleSelectConfig&,
                                                              simt::LaunchOrigin, std::uint64_t,
                                                              int);
extern template void sample_sorted_tiles<float>(simt::Device&, std::span<const float>,
                                                const TileSample&, std::span<float>,
                                                simt::LaunchOrigin, int);
extern template void sample_sorted_tiles<double>(simt::Device&, std::span<const double>,
                                                 const TileSample&, std::span<double>,
                                                 simt::LaunchOrigin, int);

}  // namespace gpusel::core
