#include "baselines/radixselect.hpp"

#include <algorithm>
#include <stdexcept>

#include "bitonic/bitonic.hpp"
#include "core/count_kernel.hpp"
#include "core/radix_kernel.hpp"
#include "core/reduce_kernel.hpp"
#include "simt/timing.hpp"

namespace gpusel::baselines {

void RadixSelectConfig::validate() const {
    if (block_dim <= 0 || block_dim % simt::kWarpSize != 0 || block_dim > 1024) {
        throw std::invalid_argument("block_dim must be a positive multiple of 32, at most 1024");
    }
    if (base_case_size < 2 || base_case_size > 4096) {
        throw std::invalid_argument("base_case_size must be in [2, 4096]");
    }
}

// The key bijection and the one-digit kernels live in core/radix_kernel.hpp;
// this baseline runs the classic fresh-allocation descent over them.

std::uint32_t radix_key(float x) noexcept { return core::RadixTraits<float>::key(x); }

std::uint64_t radix_key(double x) noexcept { return core::RadixTraits<double>::key(x); }

namespace {

constexpr std::size_t kBins = core::kRadixBins;
static_assert(kDigitBits == core::kRadixDigitBits,
              "baseline digit width must match the core radix kernels");

template <typename T>
constexpr int key_bits() noexcept {
    return core::radix_key_bits<T>();
}

[[nodiscard]] core::RadixLaunchParams launch_params(const RadixSelectConfig& cfg) noexcept {
    core::RadixLaunchParams p;
    p.block_dim = cfg.block_dim;
    p.unroll = cfg.unroll;
    p.atomic_space = cfg.atomic_space;
    p.warp_aggregation = cfg.warp_aggregation;
    return p;
}

/// Digit histogram pass (the RadixSelect `count`).
template <typename T>
int digit_count(simt::Device& dev, std::span<const T> data, int shift,
                std::span<std::int32_t> totals, std::span<std::int32_t> block_counts,
                const RadixSelectConfig& cfg, simt::LaunchOrigin origin) {
    return core::radix_count<T>(dev, data, shift, totals, block_counts, launch_params(cfg),
                                origin);
}

/// Extraction of the elements whose current digit equals `digit` (the digit
/// is recomputed; RadixSelect stores no oracles).
template <typename T>
void digit_filter(simt::Device& dev, std::span<const T> data, int shift, std::int32_t digit,
                  std::span<T> out, std::span<const std::int32_t> block_offsets,
                  std::span<std::int32_t> cursor, const RadixSelectConfig& cfg,
                  simt::LaunchOrigin origin, int grid_dim) {
    core::radix_filter<T>(dev, data, shift, digit, out, block_offsets, cursor,
                          launch_params(cfg), origin, grid_dim);
}

}  // namespace

template <typename T>
RadixSelectResult<T> radix_select(simt::Device& dev, std::span<const T> input, std::size_t rank,
                                  const RadixSelectConfig& cfg) {
    cfg.validate();
    const std::size_t n0 = input.size();
    if (n0 == 0 || rank >= n0) throw std::out_of_range("rank out of range");

    auto buf = dev.alloc<T>(n0);
    std::copy(input.begin(), input.end(), buf.data());

    RadixSelectResult<T> res;
    const double t0 = dev.elapsed_ns();
    const std::uint64_t l0 = dev.launch_count();
    const bool shared_mode = cfg.atomic_space == simt::AtomicSpace::shared;

    int shift = key_bits<T>() - kDigitBits;
    for (std::size_t level = 0;; ++level) {
        const auto origin = level == 0 ? simt::LaunchOrigin::host : simt::LaunchOrigin::device;
        const std::size_t n = buf.size();
        if (n <= cfg.base_case_size || shift < 0) {
            // shift < 0: all remaining elements share every digit -> equal.
            if (shift < 0) {
                res.value = buf[0];
                break;
            }
            bitonic::sort_on_device<T>(dev, buf.span(), n, origin, cfg.block_dim);
            res.value = buf[rank];
            break;
        }

        auto totals = dev.alloc<std::int32_t>(kBins);
        const int grid = simt::suggest_grid(dev.arch(), n, cfg.block_dim, cfg.unroll);
        simt::DeviceBuffer<std::int32_t> block_counts;
        if (shared_mode) {
            block_counts = dev.alloc<std::int32_t>(static_cast<std::size_t>(grid) * kBins);
        } else {
            core::launch_memset32(dev, totals.span(), origin);
        }
        digit_count<T>(dev, buf.span(), shift, totals.span(), block_counts.span(), cfg, origin);
        if (shared_mode) {
            core::reduce_kernel(dev, block_counts.span(), grid, static_cast<int>(kBins),
                                totals.span(), /*keep_block_offsets=*/true, origin);
        }
        auto prefix = dev.alloc<std::int32_t>(kBins + 1);
        const std::int32_t digit =
            core::select_bucket_kernel(dev, totals.span(), prefix.span(), rank, origin);
        const auto ud = static_cast<std::size_t>(digit);
        ++res.levels;

        const auto bucket_size = static_cast<std::size_t>(totals[ud]);
        auto out = dev.alloc<T>(bucket_size);
        simt::DeviceBuffer<std::int32_t> cursor;
        if (!shared_mode) {
            cursor = dev.alloc<std::int32_t>(1);
            core::launch_memset32(dev, cursor.span(), origin);
        }
        digit_filter<T>(dev, buf.span(), shift, digit, out.span(), block_counts.span(),
                        cursor.span(), cfg, origin, grid);
        rank -= static_cast<std::size_t>(prefix[ud]);
        buf = std::move(out);
        shift -= kDigitBits;
    }

    res.sim_ns = dev.elapsed_ns() - t0;
    res.launches = dev.launch_count() - l0;
    return res;
}

template RadixSelectResult<float> radix_select<float>(simt::Device&, std::span<const float>,
                                                      std::size_t, const RadixSelectConfig&);
template RadixSelectResult<double> radix_select<double>(simt::Device&, std::span<const double>,
                                                        std::size_t, const RadixSelectConfig&);

}  // namespace gpusel::baselines
