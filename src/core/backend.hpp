#pragma once
// Pluggable selection backends (docs/planner.md): "which algorithm runs"
// is a first-class decision rather than an accident of which front-end the
// caller picked.  Every single-rank front-end (sample_select, topk,
// argselect, quantile, the batch executor's recursive lanes) opens its
// input (core/opening.hpp: staging and the NaN pre-pass), asks the
// planner (core/planner.hpp) for a BackendKind, and dispatches through
// the SelectionBackend interface:
//
//   * sample  -- the paper's sampled bucket recursion (core/sample_select);
//                distribution-adaptive, with an equality-bucket exit that
//                ends a level early on duplicate-heavy inputs.
//   * bitonic -- single-block bitonic sort (the recursion base case run as
//                a whole-problem backend for small n).
//
// Backends consume an already-staged, NaN-free DataHolder; staging, NaN
// policy, planning, and result post-processing (timing, NaN tail append)
// stay in the front-ends so every backend sees the same contract.

#include <cstdint>

#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "core/sample_select.hpp"
#include "core/status.hpp"
#include "core/topk.hpp"

namespace gpusel::core {

/// The selection algorithms the planner can route a problem to.
enum class BackendKind : std::uint8_t { sample, bitonic };

/// Every BackendKind, in the planner's quarantine reroute order.
inline constexpr BackendKind kBackends[] = {BackendKind::sample, BackendKind::bitonic};

/// Stable lowercase name ("sample" / "bitonic"), as the planner log and
/// the bench JSON report it.
[[nodiscard]] constexpr const char* backend_name(BackendKind k) noexcept {
    switch (k) {
        case BackendKind::sample: return "sample";
        case BackendKind::bitonic: return "bitonic";
    }
    return "?";
}

/// Bit of one backend inside a quarantine mask (simt::Device::
/// backend_quarantine, PlanQuery::quarantined): the server's per-backend
/// circuit breaker sets bits to route the planner around faulting backends.
[[nodiscard]] constexpr std::uint32_t backend_bit(BackendKind k) noexcept {
    return 1u << static_cast<std::uint32_t>(k);
}

/// One selection algorithm behind a uniform contract.  `data` is staged
/// and NaN-free (the front-ends' pre-pass guarantees it); `stream`
/// overrides the selection's stream as in try_sample_select_staged
/// (-1 keeps cfg.stream).  Implementations fill the algorithmic result
/// fields (value/threshold/elements, levels, equality_exit, resamples,
/// fallback_levels); the dispatching front-end stamps timing, launches,
/// aux_bytes and the NaN tail.
template <typename T>
class SelectionBackend {
public:
    virtual ~SelectionBackend() = default;
    [[nodiscard]] virtual BackendKind kind() const noexcept = 0;

    /// Rank selection: the element of ascending `rank` in `data`.
    [[nodiscard]] virtual Result<SelectResult<T>> select(simt::Device& dev, DataHolder<T> data,
                                                         std::size_t rank,
                                                         const SampleSelectConfig& cfg,
                                                         int stream) const = 0;

    /// The k largest elements of `data` (unordered) plus the threshold.
    [[nodiscard]] virtual Result<TopKResult<T>> topk_largest(simt::Device& dev,
                                                             DataHolder<T> data, std::size_t k,
                                                             const SampleSelectConfig& cfg,
                                                             int stream) const = 0;
};

/// The process-wide instance of one backend kind (backends are stateless;
/// all state lives in the per-call pipeline context and pooled scratch).
template <typename T>
[[nodiscard]] const SelectionBackend<T>& selection_backend(BackendKind kind);

extern template const SelectionBackend<float>& selection_backend<float>(BackendKind);
extern template const SelectionBackend<double>& selection_backend<double>(BackendKind);
extern template const SelectionBackend<ArgPair>& selection_backend<ArgPair>(BackendKind);

}  // namespace gpusel::core
