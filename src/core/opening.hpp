#pragma once
// The single-device opening (docs/architecture.md): the steps every
// single-device front-end runs before its device work, written once.  The
// sharded front-ends have their own opening (open_shards in
// core/shard_select.cpp); this is its single-device counterpart.
//
//   * try_open  -- in this fixed order: config validation, the stream
//                  check, the front-end's own range check, staging into a
//                  pooled buffer under with_fault_retry, the NaN partition
//                  and NanPolicy::reject.  Hands back the staged holder
//                  viewed at its NaN-free prefix plus the NaN count; what a
//                  NaN tail means (quiet NaN, claimed top-k slots, the last
//                  histogram bucket) stays with the front-end.
//   * Stamp     -- the sim_ns / launches (/ aux_bytes) measurement a
//                  front-end reports, opened where its device work starts.
//   * try_sample_select_staged -- the exact descent over an opened (or
//                  otherwise staged, NaN-free) holder; the sharded root
//                  and the batch lanes feed it too.
//
// Internal to src/core: the public entry points are the try_* front-ends.

#include <cstdint>
#include <span>
#include <string>

#include "core/config.hpp"
#include "core/float_order.hpp"
#include "core/pipeline.hpp"
#include "core/sample_select.hpp"
#include "core/status.hpp"
#include "simt/device.hpp"

namespace gpusel::core {

/// Config validation (`exact` selects the one-byte-oracle bucket limit)
/// and a check that the context's stream is one the device has.  An
/// unknown stream would otherwise throw from the device's stream table in
/// the middle of a launch or a pool release.  The batch front-ends run it
/// before they lease a stream or launch.
[[nodiscard]] inline Status check_config(const PipelineContext& ctx, bool exact = true) {
    if (Status s = ctx.cfg().validate(exact); !s.ok()) return s;
    if (ctx.stream() < 0 || ctx.stream() >= ctx.dev().stream_count()) {
        return Status::failure(SelectError::invalid_argument,
                               "stream " + std::to_string(ctx.stream()) +
                                   " is not a stream of this device");
    }
    return Status::success();
}

/// The range check of the multi-rank front-ends: every rank below n.
[[nodiscard]] inline Status check_ranks(std::size_t n, std::span<const std::size_t> ranks) {
    for (const std::size_t r : ranks) {
        if (r >= n) return Status::failure(SelectError::rank_out_of_range, "rank out of range");
    }
    return Status::success();
}

/// What the opening hands a front-end.
template <typename T>
struct Opened {
    /// The staged input viewed at its NaN-free prefix.
    DataHolder<T> data;
    /// NaN keys, partitioned behind the prefix.
    std::size_t nan_count = 0;

    /// The NaN keys in partition order (unspecified); valid while `data`
    /// still holds the staging buffer.
    [[nodiscard]] std::span<const T> nan_tail() const {
        return {data.span().data() + data.size(), nan_count};
    }
};

/// The opening (see the file comment).  `range` is the front-end's own
/// argument check, reported after the config checks and before any staging.
template <typename T>
[[nodiscard]] Result<Opened<T>> try_open(const PipelineContext& ctx, std::span<const T> input,
                                         const Status& range, bool exact = true) {
    if (Status s = check_config(ctx, exact); !s.ok()) return s;
    if (!range.ok()) return range;
    Opened<T> o;
    Status s = with_fault_retry(ctx, [&] { o.data = DataHolder<T>::stage(ctx, input); });
    if (!s.ok()) return s;
    // Kernels never see NaN (core/float_order.hpp); a no-op, and no
    // reorder, on NaN-free data, so event streams match.
    o.nan_count = partition_nans_to_back(o.data.span());
    if (o.nan_count > 0 && ctx.cfg().nan_policy == NanPolicy::reject) {
        return Status::failure(SelectError::nan_keys_rejected,
                               "input contains NaN keys");
    }
    o.data.view(input.size() - o.nan_count);
    return o;
}

/// The measurement a front-end reports in its result R: simulated ns and
/// launches from construction to write().  For results that report
/// aux_bytes, construction also makes the device's current usage (the
/// staged input included) the tracker baseline, and write() reports the
/// peak above it.
template <typename R>
class Stamp {
public:
    explicit Stamp(simt::Device& dev) : dev_(&dev) {
        if constexpr (kAux) dev.tracker().set_baseline();
        t0_ = dev.elapsed_ns();
        l0_ = dev.launch_count();
    }
    void write(R& r) const {
        r.sim_ns = dev_->elapsed_ns() - t0_;
        r.launches = dev_->launch_count() - l0_;
        if constexpr (kAux) r.aux_bytes = dev_->tracker().peak_above_baseline();
    }

private:
    static constexpr bool kAux = requires(R r) { r.aux_bytes; };
    simt::Device* dev_;
    double t0_ = 0.0;
    std::uint64_t l0_ = 0;
};

/// Exact selection over a staged, NaN-free holder, which is consumed:
/// records the descent (host-side, no launches), then runs and stamps it.
/// The caller has run the opening's checks and guarantees rank < size.
/// `stream` overrides the selection's stream (every launch and pooled
/// checkout); the default -1 keeps cfg.stream.
template <typename T>
[[nodiscard]] Result<SelectResult<T>> try_sample_select_staged(simt::Device& dev,
                                                               DataHolder<T> data,
                                                               std::size_t rank,
                                                               const SampleSelectConfig& cfg,
                                                               int stream = -1);

extern template Result<SelectResult<float>> try_sample_select_staged<float>(
    simt::Device&, DataHolder<float>, std::size_t, const SampleSelectConfig&, int);
extern template Result<SelectResult<double>> try_sample_select_staged<double>(
    simt::Device&, DataHolder<double>, std::size_t, const SampleSelectConfig&, int);
extern template Result<SelectResult<ArgPair>> try_sample_select_staged<ArgPair>(
    simt::Device&, DataHolder<ArgPair>, std::size_t, const SampleSelectConfig&, int);

}  // namespace gpusel::core
