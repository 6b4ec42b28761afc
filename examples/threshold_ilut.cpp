// Threshold selection for approximate numerical algorithms -- the paper's
// introduction names "determining thresholds in approximative algorithms";
// the authors' own motivating use case is threshold-based incomplete LU
// factorization (ILUT/ParILUT), where each sweep keeps only the m
// largest-magnitude candidate entries and needs the magnitude threshold
// fast, not exactly.
//
// Scenario: a factorization sweep produced 8M candidate entries whose
// magnitudes span many orders of decades (typical for factorizations).  We
// must drop all but the largest 5%.  The rank of the threshold is known
// (95th percentile of magnitudes); approximate SampleSelect finds a
// threshold within a guaranteed rank band in a single counting pass --
// exactly the paper's approximate-selection use case, since keeping 5.01%
// instead of 5.00% of entries is irrelevant to the preconditioner.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "core/approx_select.hpp"
#include "core/sample_select.hpp"
#include "data/rng.hpp"

namespace {

/// Candidate-entry magnitudes: log-uniform over ~12 decades, mimicking
/// fill-in values of an incomplete factorization.
std::vector<double> candidate_magnitudes(std::size_t count, std::uint64_t seed) {
    gpusel::data::Xoshiro256 rng(seed);
    std::vector<double> mags(count);
    for (auto& m : mags) m = std::pow(10.0, -12.0 * rng.uniform());
    return mags;
}

}  // namespace

int main() {
    using namespace gpusel;
    const std::size_t nnz = 1 << 23;
    const double keep_fraction = 0.05;

    const auto mags = candidate_magnitudes(nnz, 11);
    // We keep the largest keep_fraction: the threshold sits at rank
    // (1 - keep_fraction) * n in ascending order.
    const auto rank = static_cast<std::size_t>(
        (1.0 - keep_fraction) * static_cast<double>(nnz));

    simt::Device dev(simt::arch_v100());

    // Approximate: one counting level, 1024 buckets, no oracles.
    core::SampleSelectConfig acfg;
    acfg.num_buckets = 1024;
    const auto approx = core::try_approx_select<double>(dev, mags, rank, acfg).value();

    // Exact, for comparison (a real sweep would skip this).
    const auto exact = core::try_sample_select<double>(dev, mags, rank, {}).value();

    const auto kept = static_cast<std::size_t>(
        std::count_if(mags.begin(), mags.end(), [&](double m) { return m >= approx.value; }));

    std::cout << "candidate entries       : " << nnz << "\n"
              << "target kept fraction    : " << keep_fraction * 100 << " %\n"
              << "approx drop threshold   : " << approx.value << "\n"
              << "exact drop threshold    : " << exact.value << "\n"
              << "actually kept           : "
              << static_cast<double>(kept) / static_cast<double>(nnz) * 100 << " %\n"
              << "rank error              : " << approx.rank_error << " of " << nnz << " ("
              << static_cast<double>(approx.rank_error) / static_cast<double>(nnz) * 100
              << " %)\n"
              << "approx simulated time   : " << approx.sim_ns / 1e6 << " ms\n"
              << "exact simulated time    : " << exact.sim_ns / 1e6 << " ms  ("
              << exact.sim_ns / approx.sim_ns << "x slower)\n";
    return 0;
}
