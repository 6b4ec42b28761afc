#pragma once
// The `sample` kernel (Sec. IV-B a): loads a random sample of the input
// into shared memory, sorts it with the bitonic sorting network, picks the
// i/b percentiles as splitters and publishes them (here: as a built
// SearchTree, including the duplicate-splitter equality buckets).

#include <span>

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

}  // namespace gpusel::core
