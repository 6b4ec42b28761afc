// Quickstart: the three entry points of the library in ~60 lines.
//
//   1. exact selection       core::sample_select
//   2. approximate selection core::approx_select
//   3. top-k selection       core::topk_largest
//
// Everything runs on a simulated GPU (simt::Device); pick an architecture
// preset, generate (or supply) data, call the algorithm.  Simulated
// durations come from the device's calibrated timing model.

#include <iostream>

#include "core/approx_select.hpp"
#include "core/sample_select.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"

int main() {
    using namespace gpusel;

    // A simulated Tesla V100.  (simt::arch_k20xm() gives the Kepler card.)
    simt::Device dev(simt::arch_v100());

    // 16M uniform random floats; we want the median.
    const std::size_t n = 1 << 24;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 42});
    const std::size_t k = n / 2;

    // ---- 1. exact selection ------------------------------------------------
    core::SampleSelectConfig cfg;           // 256 buckets, shared atomics, ...
    const auto exact = core::try_sample_select<float>(dev, data, k, cfg).value();
    std::cout << "exact median        = " << exact.value << "\n"
              << "  recursion levels  = " << exact.levels << "\n"
              << "  simulated time    = " << exact.sim_ns / 1e6 << " ms ("
              << static_cast<double>(n) / exact.sim_ns << "e9 elements/s)\n";

    // ---- 2. approximate selection (one bucketing level) ---------------------
    core::SampleSelectConfig acfg;
    acfg.num_buckets = 1024;                // no oracles -> up to 1024 buckets
    const auto approx = core::try_approx_select<float>(dev, data, k, acfg).value();
    std::cout << "approx median       = " << approx.value << "\n"
              << "  exact rank        = " << approx.splitter_rank << " (target " << k << ")\n"
              << "  rel. rank error   = "
              << static_cast<double>(approx.rank_error) / static_cast<double>(n) * 100 << " %\n"
              << "  simulated time    = " << approx.sim_ns / 1e6 << " ms ("
              << exact.sim_ns / approx.sim_ns << "x faster than exact)\n";

    // ---- 3. top-k selection (fused filter, Sec. IV-I) -----------------------
    const std::size_t topk = 10;
    const auto top = core::try_topk_largest<float>(dev, data, topk, cfg).value();
    std::cout << "top-" << topk << " threshold    = " << top.threshold << "\n"
              << "  simulated time    = " << top.sim_ns / 1e6 << " ms\n";
    return 0;
}
