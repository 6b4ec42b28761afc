#pragma once
// Tuning parameters of SampleSelect and QuickSelect (Sec. IV-H of the
// paper): work distribution, sample size, bucket count, unrolling, atomic
// flavour and base-case size.  All are runtime options so the benchmark
// harness can sweep them (Fig. 7).

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/status.hpp"
#include "simt/block.hpp"

namespace gpusel::core {

/// Exact SampleSelect stores one-byte oracles, limiting it to 256 buckets
/// (Sec. IV-B b).
inline constexpr int kMaxExactBuckets = 256;
/// Approximate SampleSelect needs no oracles; the bucket count is limited
/// by shared memory only (b <= 1024 on older GPUs, Sec. V-G).
inline constexpr int kMaxApproxBuckets = 1024;

/// What a selection does when float keys contain NaN (docs/robustness.md).
/// The default places all NaNs at the top of the total order
/// (-inf < ... < -0 == +0 < ... < +inf < NaN, all NaNs mutually equal),
/// matching the IEEE totalOrder direction for positive NaNs.
enum class NanPolicy {
    /// NaNs sort above +inf; a rank inside the NaN tail yields quiet NaN.
    propagate_largest,
    /// Any NaN key fails the call with SelectError::nan_keys_rejected.
    reject,
};

struct SampleSelectConfig {
    /// Number of buckets b (power of two).
    int num_buckets = 256;
    /// Splitter sample size s (controls bucket-size imbalance, Sec. II-B);
    /// 0 picks the default max(1024, 4 * num_buckets).
    int sample_size = 0;
    /// Threads per block for the data-parallel kernels.
    int block_dim = 256;
    /// Loop unrolling depth (Sec. IV-H d).
    int unroll = 1;
    /// Counter placement: shared-memory hierarchy or direct global atomics
    /// (Sec. IV-G).
    simt::AtomicSpace atomic_space = simt::AtomicSpace::shared;
    /// Warp-aggregated atomics (Fig. 6).
    bool warp_aggregation = false;
    /// Input size below which a bitonic-sort base case finishes selection.
    std::size_t base_case_size = 1024;
    /// Seed for splitter sampling.
    std::uint64_t seed = 123;
    /// Simulator stream all kernels of this selection are enqueued on
    /// (0 = default stream); independent selections on different streams
    /// overlap in simulated time.
    int stream = 0;
    /// Guaranteed-progress policy: stalled levels (the rank bucket did not
    /// shrink) retried with a fresh splitter sample before the descent
    /// falls back to deterministic median-of-9 tripartition levels.
    /// 0 = fall back on the first stall.
    int max_stalled_levels = 4;
    /// Hard cap on total bucketing levels (including resampled and
    /// fallback levels); exceeding it fails with
    /// SelectError::depth_exceeded, so every input provably terminates.
    int max_levels = 128;
    /// NaN key handling for float/double inputs (docs/robustness.md).
    NanPolicy nan_policy = NanPolicy::propagate_largest;
    /// Diagnostics/testing: skip sampling entirely and descend through the
    /// deterministic fallback levels from the start.  Exercises the
    /// guaranteed-progress path, which healthy sampled descents can never
    /// reach (a sampled splitter always carves off its own equality
    /// bucket, so a level never stalls naturally).
    bool force_fallback = false;
    /// Absolute simulated-clock deadline in nanoseconds; 0 disarms the
    /// check.  Armed descents compare the selection stream's clock against
    /// it between bucketing levels and abort with
    /// SelectError::deadline_exceeded once the budget is overrun -- the
    /// server's defence-in-depth behind up-front admission control
    /// (docs/service.md).  Work already enqueued on the stream is complete
    /// and consistent; the selection simply reports no value.
    double deadline_ns = 0.0;

    [[nodiscard]] int effective_sample_size() const noexcept {
        if (sample_size > 0) return sample_size;
        const int s = 4 * num_buckets;
        return s < 1024 ? 1024 : s;
    }
    /// Height of the splitter search tree: log2(num_buckets).
    [[nodiscard]] int tree_height() const noexcept {
        int h = 0;
        while ((1 << h) < num_buckets) ++h;
        return h;
    }

    /// Validates the configuration; `exact` selects the stricter oracle
    /// bucket limit.  Failures come back as SelectError::invalid_argument.
    [[nodiscard]] Status validate(bool exact = true) const {
        auto fail = [](std::string msg) {
            return Status::failure(SelectError::invalid_argument, std::move(msg));
        };
        if (num_buckets < 2 || (num_buckets & (num_buckets - 1)) != 0) {
            return fail("num_buckets must be a power of two >= 2");
        }
        const int limit = exact ? kMaxExactBuckets : kMaxApproxBuckets;
        if (num_buckets > limit) {
            return fail("num_buckets exceeds " + std::to_string(limit) +
                        (exact ? " (one-byte oracles)" : " (shared-memory capacity)"));
        }
        const int s = effective_sample_size();
        if (s < num_buckets) return fail("sample_size must be >= num_buckets");
        if (s > 4096) {
            return fail("sample_size exceeds the single-block bitonic sort capacity (4096)");
        }
        if (block_dim <= 0 || block_dim % simt::kWarpSize != 0 || block_dim > 1024) {
            return fail("block_dim must be a positive multiple of 32, at most 1024");
        }
        if (unroll < 1 || unroll > 16) return fail("unroll must be in [1, 16]");
        if (base_case_size < 2 || base_case_size > 4096) {
            return fail("base_case_size must be in [2, 4096] (bitonic sort capacity)");
        }
        if (max_stalled_levels < 0) return fail("max_stalled_levels must be >= 0");
        if (max_levels < 1) return fail("max_levels must be >= 1");
        if (deadline_ns < 0.0) {
            return fail("deadline_ns must be >= 0 (absolute sim-ns, 0 = none)");
        }
        return Status::success();
    }
};

/// QuickSelect shares most knobs; the pivot comes from a small sorted
/// sample's median (Sec. IV-D: bitonic sorting is used for pivot selection).
struct QuickSelectConfig {
    int pivot_sample_size = 32;
    int block_dim = 256;
    int unroll = 1;
    simt::AtomicSpace atomic_space = simt::AtomicSpace::shared;
    bool warp_aggregation = false;
    std::size_t base_case_size = 1024;
    std::uint64_t seed = 123;
    /// Simulator stream (see SampleSelectConfig::stream).
    int stream = 0;

    void validate() const {
        auto fail = [](const std::string& msg) { throw std::invalid_argument(msg); };
        if (pivot_sample_size < 1 || pivot_sample_size > 4096) {
            fail("pivot_sample_size must be in [1, 4096]");
        }
        if (block_dim <= 0 || block_dim % simt::kWarpSize != 0 || block_dim > 1024) {
            fail("block_dim must be a positive multiple of 32, at most 1024");
        }
        if (unroll < 1 || unroll > 16) fail("unroll must be in [1, 16]");
        if (base_case_size < 2 || base_case_size > 4096) {
            fail("base_case_size must be in [2, 4096] (bitonic sort capacity)");
        }
    }
};

}  // namespace gpusel::core
