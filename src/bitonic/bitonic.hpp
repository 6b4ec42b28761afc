#pragma once
// Bitonic sorting network (Batcher 1968), Sec. IV-D of the paper.
//
// Selection needs to sort small element sets in three places: splitter
// sample sorting in SampleSelect, pivot selection in QuickSelect, and the
// recursion base case of both algorithms.  The paper implements a bitonic
// sorting kernel operating in shared memory, restricted to a single thread
// block because the network needs explicit synchronization between steps.
//
// We provide the same: `sort_small_kernel` loads the data into block shared
// memory, runs the O(n log^2 n) network (charging compare-exchange work,
// shared traffic and one block barrier per network step), and writes the
// sorted data back.  A plain host-side `sort_network` reference exists for
// tests, exercising the identical network schedule without instrumentation.

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "simt/block.hpp"
#include "simt/device.hpp"
#include "simt/simd.hpp"

namespace gpusel::bitonic {

/// Largest input the single-block sorting kernel accepts.  Must stay within
/// one block's shared memory for doubles on the smaller (Kepler) preset:
/// 4096 * 8 B = 32 KiB <= 48 KiB.
inline constexpr std::size_t kMaxSortSize = 4096;

/// Smallest power of two >= n.
[[nodiscard]] constexpr std::size_t next_pow2(std::size_t n) noexcept {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

/// Number of compare-exchange steps (== barriers) of the network on
/// pow2-size m: k(k+1)/2 for m == 2^k.
[[nodiscard]] constexpr int network_steps(std::size_t m) noexcept {
    int k = 0;
    while ((std::size_t{1} << k) < m) ++k;
    return k * (k + 1) / 2;
}

namespace detail {

/// Runs the bitonic network schedule over `m` (power-of-two) elements,
/// invoking step(stride_j, block_k) ordering decisions via the canonical
/// ij-partner formulation.  Used by both the host reference and the kernel;
/// each (k, j) step executes through the simd lane-vector layer (strides
/// narrower than the vector width fall back to the scalar pair loop), with
/// identical comparison/swap decisions on every tier.
template <typename T>
void run_network(T* a, std::size_t m) {
    for (std::size_t k = 2; k <= m; k <<= 1) {
        for (std::size_t j = k >> 1; j > 0; j >>= 1) {
            simt::simd::bitonic_step(a, m, j, k);
        }
    }
}

}  // namespace detail

/// Host reference: sorts `data` ascending with the same network schedule the
/// kernel uses (padding to a power of two with +infinity sentinels).
template <typename T>
void sort_network(std::span<T> data) {
    const std::size_t n = data.size();
    if (n <= 1) return;
    const std::size_t m = next_pow2(n);
    std::vector<T> buf(m, std::numeric_limits<T>::infinity());
    std::copy(data.begin(), data.end(), buf.begin());
    detail::run_network(buf.data(), m);
    std::copy(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n), data.begin());
}

/// Sorts sh[0..n_valid) ascending, where `sh` is a shared-memory span of
/// power-of-two size m >= n_valid; pads [n_valid, m) with +infinity.
/// Charges the network's compare-exchange work, shared traffic and one
/// block barrier per network step.  Building block for sort_small_kernel
/// and the splitter sample kernel.
template <typename T>
void sort_in_shared(simt::BlockCtx& blk, std::span<T> sh, std::size_t n_valid) {
    const std::size_t m = sh.size();
    for (std::size_t i = n_valid; i < m; ++i) {
        blk.shared_st(sh, i, std::numeric_limits<T>::infinity());
    }
    blk.charge_shared((m - n_valid) * sizeof(T));
    blk.sync();
    detail::run_network(sh.data(), m);
    const auto steps = static_cast<std::uint64_t>(network_steps(m));
    blk.charge_instr(steps * (m / 2));
    blk.charge_shared(steps * m * sizeof(T));
    for (std::uint64_t s = 0; s < steps; ++s) blk.sync();
}

/// Single-block kernel body: sorts data[0..n) ascending through shared
/// memory.  Instrumentation: coalesced load/store of the payload, one
/// block barrier per network step, one compare-exchange instruction and
/// two shared accesses per pair per step.  The block's own warps stride
/// the payload, so a grid epilogue (one warp of a wider grid) runs the
/// same body with the same counters as the one-block `bitonic_sort`.
template <typename T>
void sort_small_kernel(simt::BlockCtx& blk, std::span<T> data, std::size_t n) {
    if (n > kMaxSortSize) {
        throw std::invalid_argument("sort_small_kernel: input exceeds kMaxSortSize");
    }
    if (n <= 1) return;
    const std::size_t m = next_pow2(n);
    auto sh = blk.shared_array<T>(m);

    // Load into shared memory (coalesced).
    blk.warp_tiles_local(n, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
        T regs[simt::kWarpSize];
        w.load(std::span<const T>(data), base, regs);
        for (int l = 0; l < w.lanes(); ++l) {
            blk.shared_st(sh, base + static_cast<std::size_t>(l), regs[l]);
        }
        w.touch_shared(static_cast<std::uint64_t>(w.lanes()) * sizeof(T));
    });
    sort_in_shared(blk, sh, n);

    // Write back (coalesced).
    blk.warp_tiles_local(n, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
        T regs[simt::kWarpSize];
        for (int l = 0; l < w.lanes(); ++l) {
            regs[l] = blk.shared_ld(sh, base + static_cast<std::size_t>(l));
        }
        w.touch_shared(static_cast<std::uint64_t>(w.lanes()) * sizeof(T));
        w.store(data, base, regs);
    });
}

/// Convenience: launches sort_small_kernel as a one-block kernel on `dev`.
template <typename T>
void sort_on_device(simt::Device& dev, std::span<T> data, std::size_t n,
                    simt::LaunchOrigin origin = simt::LaunchOrigin::host, int block_dim = 256,
                    int stream = 0) {
    dev.launch("bitonic_sort",
               {.grid_dim = 1, .block_dim = block_dim, .origin = origin, .stream = stream},
               [data, n](simt::BlockCtx& blk) { sort_small_kernel(blk, data, n); });
}

/// Segment descriptor for batched sorting.
struct Segment {
    std::size_t begin;
    std::size_t length;  ///< must be <= kMaxSortSize
};

/// Sorts many independent segments of `data` in place with ONE kernel
/// launch: one thread block per segment (load to shared, bitonic network,
/// store back).  This is how real GPU sample sorts handle the base-case
/// level -- per-segment launches would drown in launch latency.
template <typename T>
void batched_sort_on_device(simt::Device& dev, std::span<T> data,
                            const std::vector<Segment>& segments,
                            simt::LaunchOrigin origin = simt::LaunchOrigin::host,
                            int block_dim = 256, int stream = 0) {
    if (segments.empty()) return;
    for (const auto& s : segments) {
        if (s.length > kMaxSortSize) {
            throw std::invalid_argument("batched_sort_on_device: segment exceeds kMaxSortSize");
        }
        if (s.begin + s.length > data.size()) {
            throw std::invalid_argument("batched_sort_on_device: segment out of range");
        }
    }
    dev.launch("bitonic_sort_batched",
               {.grid_dim = static_cast<int>(segments.size()), .block_dim = block_dim,
                .origin = origin, .stream = stream},
               [data, &segments](simt::BlockCtx& blk) {
                   const auto& seg = segments[static_cast<std::size_t>(blk.block_idx())];
                   if (seg.length <= 1) return;
                   const std::size_t m = next_pow2(seg.length);
                   auto sh = blk.shared_array<T>(m);
                   blk.warp_tiles_local(
                       seg.length, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                           T regs[simt::kWarpSize];
                           w.load(std::span<const T>(data), seg.begin + base, regs);
                           for (int l = 0; l < w.lanes(); ++l) {
                               blk.shared_st(sh, base + static_cast<std::size_t>(l), regs[l]);
                           }
                           w.touch_shared(static_cast<std::uint64_t>(w.lanes()) * sizeof(T));
                       });
                   sort_in_shared(blk, sh, seg.length);
                   blk.warp_tiles_local(
                       seg.length, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                           T regs[simt::kWarpSize];
                           for (int l = 0; l < w.lanes(); ++l) {
                               regs[l] = blk.shared_ld(sh, base + static_cast<std::size_t>(l));
                           }
                           w.touch_shared(static_cast<std::uint64_t>(w.lanes()) * sizeof(T));
                           w.store(data, seg.begin + base, regs);
                       });
               });
}

// Explicitly instantiated in bitonic.cpp for float and double.
extern template void sort_network<float>(std::span<float>);
extern template void sort_network<double>(std::span<double>);
extern template void sort_small_kernel<float>(simt::BlockCtx&, std::span<float>, std::size_t);
extern template void sort_small_kernel<double>(simt::BlockCtx&, std::span<double>, std::size_t);

}  // namespace gpusel::bitonic
