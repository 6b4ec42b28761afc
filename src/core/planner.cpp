#include "core/planner.hpp"

#include <algorithm>
#include <array>

#include "bitonic/bitonic.hpp"
#include "core/radix_kernel.hpp"

namespace gpusel::core {

namespace {

/// Probe identity of one element: the radix key image, so -0.0 == +0.0
/// and duplicate *keys* count as duplicates even for key/payload pairs
/// (payloads are unique indices and would hide every duplicate).
std::uint64_t probe_key(float x) noexcept { return RadixTraits<float>::key(x); }
std::uint64_t probe_key(double x) noexcept { return RadixTraits<double>::key(x); }
std::uint64_t probe_key(ArgPair x) noexcept { return RadixTraits<float>::key(x.key); }

/// Can the forced backend run this problem at all?
bool feasible(BackendKind k, const PlanQuery& q) noexcept {
    switch (k) {
        case BackendKind::sample: return true;
        case BackendKind::radix: return !q.multi;
        case BackendKind::bitonic:
            return !q.multi && q.n <= static_cast<std::size_t>(bitonic::kMaxSortSize);
    }
    return false;
}

bool quarantined(BackendKind k, const PlanQuery& q) noexcept {
    return (q.quarantined & backend_bit(k)) != 0;
}

/// Reroutes a decision whose backend the circuit breaker quarantined:
/// tries the remaining backends in sample -> radix -> bitonic order
/// (sample is always feasible, so a healthy sample wins).  When every
/// feasible backend is quarantined the original decision stands -- the
/// planner degrades the quarantine to advisory rather than failing the
/// selection, and the descent's own fault retry carries the risk.
PlanDecision apply_quarantine(PlanDecision d, const PlanQuery& q) noexcept {
    if (!quarantined(d.backend, q)) return d;
    constexpr BackendKind order[] = {BackendKind::sample, BackendKind::radix,
                                     BackendKind::bitonic};
    for (const BackendKind k : order) {
        if (k == d.backend || !feasible(k, q) || quarantined(k, q)) continue;
        switch (k) {
            case BackendKind::sample: return {k, "quarantine reroute: sample", false};
            case BackendKind::radix: return {k, "quarantine reroute: radix", false};
            case BackendKind::bitonic: return {k, "quarantine reroute: bitonic", false};
        }
    }
    return {d.backend, "all feasible backends quarantined", d.env_forced};
}

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

PlanDecision plan(const PlanQuery& q, const DistributionHints& h,
                  std::optional<BackendKind> forced) {
    // 0. Environment override, when the forced backend can run the problem
    //    (an infeasible override -- bitonic beyond the sort capacity,
    //    radix/bitonic for a multi-rank tree -- falls through to the
    //    automatic rules rather than failing the selection).  A quarantined
    //    override also falls through: the breaker's verdict on a faulting
    //    backend outranks an operator preference.
    if (forced && feasible(*forced, q) && !quarantined(*forced, q)) {
        return {*forced, "GPUSEL_BACKEND override", true};
    }
    // 1. Multi-rank descent shares one bucket tree across all targets;
    //    only the sampled bucket machinery implements it.
    if (q.multi) {
        return {BackendKind::sample, "multi-rank bucket tree", false};
    }
    // 2. Small problems fit one block: sorting outright beats any level
    //    machinery (this is the recursion base case run as a backend).
    if (q.n <= q.base_case_size) {
        return apply_quarantine({BackendKind::bitonic, "small n: single-block bitonic sort", false},
                                q);
    }
    // 3./4. Duplicate-heavy or low-cardinality probes defeat sampled
    //    splitters (most samples collide, buckets stay fat) but are
    //    exactly where the radix skip-filter descent shines: shared digit
    //    prefixes resolve from one fused histogram pass.
    if (h.dominant_frac >= kPlannerDominantFrac) {
        return apply_quarantine({BackendKind::radix, "duplicate-heavy probe", false}, q);
    }
    if (h.probe_size >= 4 && h.probe_distinct * 4 <= h.probe_size) {
        return apply_quarantine({BackendKind::radix, "low distinct-value probe", false}, q);
    }
    // 5. RobustnessCounters feedback: the previous planned descent on this
    //    device thrashed (resamples/fallbacks grew), so the distribution
    //    is defeating the sampler in a way the probe missed.
    if (q.thrash_delta > 0) {
        return apply_quarantine({BackendKind::radix, "sampler thrash feedback", false}, q);
    }
    // 6. Deep top-k keeps a constant fraction of the input; radix secures
    //    whole upper-digit bins per pass with a width-bounded level count.
    if (q.topk && q.k * 4 >= q.n) {
        return apply_quarantine({BackendKind::radix, "deep top-k (k >= n/4)", false}, q);
    }
    // 7. Default: the paper's distribution-adaptive sampled descent.
    return apply_quarantine(
        {BackendKind::sample, "distribution-adaptive sampled descent", false}, q);
}

void record_planned_decision(simt::Device& dev, const PlanDecision& d, std::uint64_t n,
                             std::uint64_t k, int stream) {
    auto& rc = dev.robustness();
    switch (d.backend) {
        case BackendKind::sample: ++rc.backend_sample; break;
        case BackendKind::radix: ++rc.backend_radix; break;
        case BackendKind::bitonic: ++rc.backend_bitonic; break;
    }
    if (d.env_forced) ++rc.backend_env_overrides;
    simt::PlannerEvent ev;
    ev.stream = stream;
    ev.backend = backend_name(d.backend);
    ev.reason = d.reason;
    ev.n = n;
    ev.k = k;
    ev.env_forced = d.env_forced;
    dev.note_planner_event(std::move(ev));
}

template <typename T>
PlanDecision plan_selection(simt::Device& dev, std::span<const T> data, PlanQuery q,
                            int stream) {
    q.elem_size = sizeof(T);
    // Sampler-thrash feedback: resamples/fallbacks growth since the mark
    // left by the previous decision -- but only attributed when that
    // decision was for a shape-similar problem (same element width, n
    // within 4x either way).  A dissimilar shape resets the context: the
    // thrash belonged to a different workload and must not bias this one.
    auto& fb = dev.planner_feedback();
    const auto& rc = dev.robustness();
    const std::uint64_t now = rc.resamples + rc.fallbacks;
    const std::uint64_t delta = now - std::min(now, fb.thrash_mark);
    const bool shape_similar =
        fb.prev_n == 0 || (fb.prev_elem_size == sizeof(T) && fb.prev_n / 4 <= q.n &&
                           q.n <= fb.prev_n * 4);
    q.thrash_delta = shape_similar ? delta : 0;
    fb.thrash_mark = now;
    fb.prev_n = q.n;
    fb.prev_elem_size = sizeof(T);
    q.quarantined = dev.backend_quarantine();

    const DistributionHints h = probe_distribution<T>(data);
    const PlanDecision d = plan(q, h, backend_env_override());
    record_planned_decision(dev, d, q.n, q.k, stream);
    return d;
}

ShardPlan plan_shard_count(std::size_t n, std::size_t elem_size,
                           std::size_t device_capacity_bytes, int num_devices) {
    ShardPlan p;
    const auto staging_bytes = static_cast<std::size_t>(
        static_cast<double>(device_capacity_bytes) * kShardStagingFraction);
    std::size_t budget = elem_size > 0 ? staging_bytes / elem_size : staging_bytes;
    if (budget == 0) budget = 1;
    p.shard_elems = budget;
    if (n <= budget) {
        p.shards = 1;
        p.reason = "fits one device";
        return p;
    }
    p.shards = (n + budget - 1) / budget;
    p.reason = "exceeds per-device staging budget";
    // With little oversubscription, spreading over all devices shrinks the
    // critical path at no extra merge cost (the candidate fan-in already
    // visits every used device).
    const auto devices = static_cast<std::size_t>(num_devices < 1 ? 1 : num_devices);
    if (p.shards < devices && devices > 1) {
        p.shards = devices;
        p.reason = "spread over all devices";
    }
    if (p.shards > n) p.shards = n;  // never cut below one element per shard
    p.shard_elems = (n + p.shards - 1) / p.shards;
    return p;
}

template DistributionHints probe_distribution<float>(std::span<const float>);
template DistributionHints probe_distribution<double>(std::span<const double>);
template DistributionHints probe_distribution<ArgPair>(std::span<const ArgPair>);
template PlanDecision plan_selection<float>(simt::Device&, std::span<const float>, PlanQuery,
                                            int);
template PlanDecision plan_selection<double>(simt::Device&, std::span<const double>, PlanQuery,
                                             int);
template PlanDecision plan_selection<ArgPair>(simt::Device&, std::span<const ArgPair>, PlanQuery,
                                              int);

}  // namespace gpusel::core
