#include "core/planner.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "core/pipeline.hpp"
#include "core/radix_kernel.hpp"

namespace gpusel::core {

namespace {

/// Probe identity of one element: the radix key image, so -0.0 == +0.0
/// and duplicate *keys* count as duplicates even for key/payload pairs
/// (payloads are unique indices and would hide every duplicate).
std::uint64_t probe_key(float x) noexcept { return RadixTraits<float>::key(x); }
std::uint64_t probe_key(ArgPair x) noexcept { return RadixTraits<float>::key(x.key); }

}  // namespace

template <typename T>
DistributionHints probe_distribution(std::span<const T> data) {
    DistributionHints h;
    const std::size_t n = data.size();
    if (n == 0) return h;
    const std::size_t m = std::min(n, kPlannerProbeSize);
    std::array<std::uint64_t, kPlannerProbeSize> keys{};
    const std::size_t stride = n / m;
    for (std::size_t i = 0; i < m; ++i) keys[i] = probe_key(data[i * stride]);
    std::sort(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(m));
    std::size_t distinct = 1;
    std::size_t run = 1;
    std::size_t best_run = 1;
    for (std::size_t i = 1; i < m; ++i) {
        if (keys[i] == keys[i - 1]) {
            ++run;
        } else {
            ++distinct;
            run = 1;
        }
        best_run = std::max(best_run, run);
    }
    h.probe_size = m;
    h.probe_distinct = distinct;
    h.dominant_frac = static_cast<double>(best_run) / static_cast<double>(m);
    return h;
}

DescentRecord linear_descent(std::size_t n, const SampleSelectConfig& cfg) noexcept {
    if (fits_base_case(n, cfg)) return {Descent::bitonic, "small n: single-block bitonic sort"};
    return {Descent::sample, "distribution-adaptive sampled descent"};
}

void record_descent(simt::Device& dev, const DescentRecord& d, std::uint64_t n, std::uint64_t k,
                    int stream) {
    const bool sorted = d.descent == Descent::bitonic;
    simt::RobustnessCounters& rc = dev.robustness();
    ++(sorted ? rc.backend_bitonic : rc.backend_sample);
    simt::PlannerEvent ev;
    ev.stream = stream;
    ev.backend = sorted ? "bitonic" : "sample";
    ev.reason = d.reason;
    ev.n = n;
    ev.k = k;
    dev.note_planner_event(std::move(ev));
}

template DistributionHints probe_distribution<float>(std::span<const float>);
template DistributionHints probe_distribution<ArgPair>(std::span<const ArgPair>);

}  // namespace gpusel::core
