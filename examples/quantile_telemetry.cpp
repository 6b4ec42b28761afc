// Quantile selection in order statistics -- the paper's introduction names
// "quantile selection in order statistics" as the first application, and
// its future-work section proposes multiple-sequence selection; this
// example combines both through the library's multi-rank extension.
//
// Scenario: a service recorded 4M request latencies (log-normal-ish with a
// long tail).  The dashboard needs p50 / p90 / p99 / p99.9 every minute.
// multi_select shares the bucketing passes between all four quantiles
// instead of running four independent selections.
//
// The second half streams the same telemetry through the sharded layer's
// StreamingQuantile sketch (core/shard_select.hpp): the first chunk's
// exact order statistics fix a splitter tree, every later chunk is one
// count pass, and the dashboard reads quantiles with an exact residual
// rank-error bound at any point -- no need to hold the full stream.

#include <cmath>
#include <cstddef>
#include <iostream>
#include <span>
#include <vector>

#include "core/multiselect.hpp"
#include "core/shard_select.hpp"
#include "data/rng.hpp"

namespace {

/// Synthetic latencies in milliseconds: log-normal body plus a retry tail.
std::vector<float> record_latencies(std::size_t count, std::uint64_t seed) {
    gpusel::data::Xoshiro256 rng(seed);
    std::vector<float> lat(count);
    for (auto& l : lat) {
        const double u1 = std::max(rng.uniform(), 1e-12);
        const double u2 = rng.uniform();
        const double normal = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
        l = static_cast<float>(std::exp(3.0 + 0.6 * normal));  // ~20ms median
        if (rng.uniform() < 0.01) l *= 10.0f;                  // retries
    }
    return lat;
}

}  // namespace

int main() {
    using namespace gpusel;
    const std::size_t n = 1 << 22;
    const auto latencies = record_latencies(n, 23);

    const double quantiles[] = {0.50, 0.90, 0.99, 0.999};
    std::vector<std::size_t> ranks;
    for (const double q : quantiles) {
        ranks.push_back(static_cast<std::size_t>(q * static_cast<double>(n - 1)));
    }

    simt::Device dev(simt::arch_v100());
    const auto res = core::try_multi_select<float>(dev, latencies, ranks, {}).value();

    std::cout << "latency samples : " << n << "\n";
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        std::cout << "  p" << quantiles[i] * 100 << "\t= " << res.values[i] << " ms\n";
    }
    std::cout << "selection depth : " << res.max_depth << "\n"
              << "kernel launches : " << res.launches << "\n"
              << "simulated time  : " << res.sim_ns / 1e6 << " ms for all "
              << ranks.size() << " quantiles\n";

    // Streaming mode: the same samples arrive as 16 chunks over time.
    simt::Device sdev(simt::arch_v100());
    core::ShardSelectConfig scfg;
    scfg.splitter_buckets = 256;  // finer tree -> tighter rank-error bound
    core::StreamingQuantile<float> sketch(sdev, scfg);
    const std::size_t chunk = n / 16;
    for (std::size_t off = 0; off < n; off += chunk) {
        const std::size_t len = std::min(chunk, n - off);
        const auto st = sketch.observe(std::span<const float>(latencies).subspan(off, len));
        if (!st.ok()) {
            std::cerr << "observe failed: " << st.message << "\n";
            return 1;
        }
    }
    std::cout << "\nstreaming sketch over " << sketch.observed() << " samples ("
              << sketch.launches() << " launches):\n";
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        const auto est = sketch.quantile(quantiles[i]);
        if (!est.ok()) {
            std::cerr << "quantile failed: " << est.status().message << "\n";
            return 1;
        }
        const auto& e = est.value();
        std::cout << "  p" << quantiles[i] * 100 << "\t= " << e.value << " ms (exact "
                  << res.values[i] << ", rank error <= " << e.rank_error_bound << " of "
                  << e.n << ")\n";
    }
    return 0;
}
