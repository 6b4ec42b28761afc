#pragma once
// One-digit radix kernels of the RadixSelect baseline (Sec. V-D,
// baselines/radixselect.hpp).  MSD radix selection works on the
// order-preserving unsigned image of the element (RadixTraits): a digit
// histogram replaces the sampled splitters, so the descent depth is bounded
// by the key width regardless of the distribution.  The planner's
// distribution probe (core/planner.hpp) reads the same key image, so
// -0.0 == +0.0 there too.
//
// The filter scatters through the masked compress-store engine (lint rule
// R5) instead of per-lane stores, charging the same coalesced bytes with
// SimTSan-checked writes.

#include <bit>
#include <cstdint>
#include <span>

#include "simt/device.hpp"

namespace gpusel::core {

/// Radix digit width; 8 bits = 256 histogram bins per level.
inline constexpr int kRadixDigitBits = 8;
inline constexpr std::size_t kRadixBins = std::size_t{1} << kRadixDigitBits;

/// Order-preserving bijection to an unsigned key: x < y (total order over
/// the NaN-free inputs the kernels see)  <=>  key(x) < key(y).
template <typename T>
struct RadixTraits;

template <>
struct RadixTraits<float> {
    using key_type = std::uint32_t;
    [[nodiscard]] static constexpr key_type key(float x) noexcept {
        const auto u = std::bit_cast<std::uint32_t>(x);
        // Positive floats: set the sign bit; negatives: flip all bits.
        return (u & 0x80000000u) != 0 ? ~u : (u | 0x80000000u);
    }
};

template <>
struct RadixTraits<double> {
    using key_type = std::uint64_t;
    [[nodiscard]] static constexpr key_type key(double x) noexcept {
        const auto u = std::bit_cast<std::uint64_t>(x);
        return (u & 0x8000000000000000ULL) != 0 ? ~u : (u | 0x8000000000000000ULL);
    }
};

template <typename T>
[[nodiscard]] constexpr int radix_key_bits() noexcept {
    return static_cast<int>(sizeof(typename RadixTraits<T>::key_type) * 8);
}

/// The radix digit of `x` at bit offset `shift`.
template <typename T>
[[nodiscard]] constexpr std::int32_t radix_digit_of(T x, int shift) noexcept {
    return static_cast<std::int32_t>((RadixTraits<T>::key(x) >> shift) & (kRadixBins - 1));
}

/// Launch-shape knobs shared by the radix kernels.
struct RadixLaunchParams {
    int block_dim = 256;
    int unroll = 1;
    simt::AtomicSpace atomic_space = simt::AtomicSpace::shared;
    /// Warp-aggregated histogram atomics (Fig. 6).
    bool warp_aggregation = false;
    /// Stream the launches enqueue on (lint rule R6: every src/core launch
    /// threads one; the baseline keeps the default stream).
    int stream = 0;
};

/// Digit-histogram pass over the digit at `shift`.
///
/// * Shared mode: per-block partials go to `block_counts` ([block][bin],
///   grid * kRadixBins int32s), which reduce_kernel folds; `totals` is not
///   touched.
/// * Global mode: counts accumulate atomically into `totals` (kRadixBins
///   int32s; must be pre-zeroed).
///
/// Returns the grid size.
template <typename T>
int radix_count(simt::Device& dev, std::span<const T> data, int shift,
                std::span<std::int32_t> totals, std::span<std::int32_t> block_counts,
                const RadixLaunchParams& p, simt::LaunchOrigin origin);

/// Extraction of the elements whose digit at `shift` equals `digit` into
/// `out` (sized to the bucket), via aggregated cursor offsets + masked
/// compress-store.  Shared mode consumes the reduce kernel's per-block
/// offsets (`block_offsets`); global mode a zeroed one-slot `cursor`.
/// `grid_dim` must match the count pass.
template <typename T>
void radix_filter(simt::Device& dev, std::span<const T> data, int shift, std::int32_t digit,
                  std::span<T> out, std::span<const std::int32_t> block_offsets,
                  std::span<std::int32_t> cursor, const RadixLaunchParams& p,
                  simt::LaunchOrigin origin, int grid_dim);

#define GPUSEL_RADIX_KERNEL_EXTERN(T)                                                          \
    extern template int radix_count<T>(simt::Device&, std::span<const T>, int,                 \
                                       std::span<std::int32_t>, std::span<std::int32_t>,       \
                                       const RadixLaunchParams&, simt::LaunchOrigin);          \
    extern template void radix_filter<T>(simt::Device&, std::span<const T>, int, std::int32_t, \
                                         std::span<T>, std::span<const std::int32_t>,          \
                                         std::span<std::int32_t>, const RadixLaunchParams&,    \
                                         simt::LaunchOrigin, int);

GPUSEL_RADIX_KERNEL_EXTERN(float)
GPUSEL_RADIX_KERNEL_EXTERN(double)
#undef GPUSEL_RADIX_KERNEL_EXTERN

}  // namespace gpusel::core
