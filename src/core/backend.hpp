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
//                distribution-adaptive, equality-bucket early exit.
//   * radix   -- MSD radix digit descent (core/radix_backend) with fused
//                multi-level histograms; distribution-independent, immune
//                to duplicate-heavy inputs that make sampling degenerate.
//   * bitonic -- single-block bitonic sort (the recursion base case run as
//                a whole-problem backend for small n).
//
// Backends consume an already-staged, NaN-free DataHolder; staging, NaN
// policy, planning, and result post-processing (timing, NaN tail append)
// stay in the front-ends so every backend sees the same contract.  The
// GPUSEL_BACKEND environment variable ("auto" / "sample" / "radix" /
// "bitonic") overrides the planner where the forced backend is feasible.

#include <cstdint>
#include <optional>
#include <string_view>

#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "core/sample_select.hpp"
#include "core/status.hpp"
#include "core/topk.hpp"

namespace gpusel::core {

/// The selection algorithms the planner can route a problem to.
enum class BackendKind : std::uint8_t { sample, radix, bitonic };

/// Stable lowercase name ("sample" / "radix" / "bitonic"): the value the
/// GPUSEL_BACKEND override accepts and the planner log / bench JSON report.
[[nodiscard]] constexpr const char* backend_name(BackendKind k) noexcept {
    switch (k) {
        case BackendKind::sample: return "sample";
        case BackendKind::radix: return "radix";
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

/// Parses a backend name; "auto" (and anything unknown) maps to nullopt,
/// i.e. "let the planner decide".
[[nodiscard]] std::optional<BackendKind> parse_backend(std::string_view name) noexcept;

/// The GPUSEL_BACKEND environment override, re-read on every call so tests
/// can flip it between selections.  Unset / "auto" / unknown -> nullopt.
[[nodiscard]] std::optional<BackendKind> backend_env_override();

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
