#pragma once
// Which descent ran (docs/planner.md).  Every exact selection runs the
// paper's sampled descent (core/pipeline.hpp), which sorts an input that
// fits base_case_size outright with one single-block bitonic sort.  Each
// selection's front-end records which of the two shapes ran: a
// simt::PlannerEvent on the device (the chrome-trace export renders them
// as instant events) and a RobustnessCounters::backend_* tally, so bench
// JSON shows which descent actually ran.  Recording is host-side
// bookkeeping: it reads no data, launches no kernel and advances no clock.
//
// The header also keeps the host-side distribution probe, which no code
// path reads; the bench suite times it for its core.planner.probe_host_us
// row.

#include <cstdint>
#include <span>

#include "core/config.hpp"
#include "core/key_payload.hpp"
#include "simt/device.hpp"

namespace gpusel::core {

/// Elements the distribution probe reads (evenly strided; host-side,
/// untimed).
inline constexpr std::size_t kPlannerProbeSize = 64;

/// What a probe of the staged data shows.
struct DistributionHints {
    /// Share of the probe held by its most frequent key, in [0, 1].
    double dominant_frac = 0.0;
    /// Distinct keys among the probed elements.
    std::size_t probe_distinct = 0;
    /// Elements actually probed (min(n, kPlannerProbeSize)).
    std::size_t probe_size = 0;
};

/// Probes `data` with kPlannerProbeSize evenly strided host reads.  For
/// key/payload pairs the key alone is probed -- payloads are unique
/// indices, so including them would hide every duplicate.
template <typename T>
[[nodiscard]] DistributionHints probe_distribution(std::span<const T> data);

/// The two shapes of the descent: sampled levels (Sec. IV-E), or the base
/// case's single-block bitonic sort of the whole input (Sec. IV-D).
enum class Descent : std::uint8_t { sample, bitonic };

/// Which descent ran one selection, and why.  The reason strings are
/// stable (tests/test_planner.cpp).
struct DescentRecord {
    Descent descent = Descent::sample;
    const char* reason = "";
};

/// The record of a single-rank selection or top-k over n staged, NaN-free
/// elements: bitonic exactly when SelectionPipeline::descend sorts them
/// outright (fits_base_case), the sampled descent otherwise.
[[nodiscard]] DescentRecord linear_descent(std::size_t n, const SampleSelectConfig& cfg) noexcept;

/// Tallies RobustnessCounters::backend_{sample,bitonic} and logs a
/// PlannerEvent for one selection of n elements and rank (or k) `k`
/// about to run on `stream`.
void record_descent(simt::Device& dev, const DescentRecord& d, std::uint64_t n, std::uint64_t k,
                    int stream);

extern template DistributionHints probe_distribution<float>(std::span<const float>);
extern template DistributionHints probe_distribution<ArgPair>(std::span<const ArgPair>);

}  // namespace gpusel::core
