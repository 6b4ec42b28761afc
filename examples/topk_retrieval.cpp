// Top-k selection for information retrieval -- the paper's introduction
// names "top-k selection in information retrieval" as a core application.
//
// Scenario: a query scored 4M documents (BM25-like scores: an exponential
// bulk of irrelevant documents plus a heavy tail of relevant ones).  The
// ranker needs the 100 best documents.  Sorting all 4M scores would be
// wasteful; the fused top-k SampleSelect extracts them in a couple of
// passes, and the returned threshold doubles as the cut-off score for
// downstream early-exit scoring.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "core/argselect.hpp"
#include "data/rng.hpp"

namespace {

/// Synthetic BM25-ish score distribution: exponential noise floor, with a
/// small relevant set boosted far above it.
std::vector<float> score_documents(std::size_t num_docs, std::size_t num_relevant,
                                   std::uint64_t seed) {
    gpusel::data::Xoshiro256 rng(seed);
    std::vector<float> scores(num_docs);
    for (auto& s : scores) {
        s = static_cast<float>(-std::log(std::max(rng.uniform(), 1e-12)));  // Exp(1)
    }
    for (std::size_t i = 0; i < num_relevant; ++i) {
        scores[rng.bounded(num_docs)] += 8.0f + static_cast<float>(rng.uniform() * 4.0);
    }
    return scores;
}

}  // namespace

int main() {
    using namespace gpusel;
    const std::size_t num_docs = 1 << 22;
    const std::size_t k = 100;

    const auto scores = score_documents(num_docs, /*num_relevant=*/250, /*seed=*/7);

    simt::Device dev(simt::arch_v100());
    core::SampleSelectConfig cfg;
    // A ranker needs document ids, not just scores: the indexed top-k
    // returns the original positions of the k best scores, already ranked
    // (descending score, ties by ascending document id).
    const auto top = core::try_topk_largest_indices(dev, scores, k, cfg).value();

    std::cout << "scored documents      : " << num_docs << "\n"
              << "retrieved             : " << k << "\n"
              << "score threshold       : " << top.threshold << "\n"
              << "best document         : doc#" << top.indices[0] << " (score "
              << top.values[0] << ")\n"
              << "10th document         : doc#" << top.indices[9] << " (score "
              << top.values[9] << ")\n"
              << "worst retrieved       : doc#" << top.indices[k - 1] << " (score "
              << top.values[k - 1] << ")\n"
              << "simulated time        : " << top.sim_ns / 1e6 << " ms ("
              << static_cast<double>(num_docs) / top.sim_ns << "e9 docs/s)\n";

    // Sanity: the threshold really is the k-th largest score.
    std::vector<float> ref(scores);
    std::nth_element(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(k - 1), ref.end(),
                     std::greater<>());
    std::cout << "reference k-th score  : " << ref[k - 1]
              << (ref[k - 1] == top.threshold ? "  (matches)" : "  (MISMATCH!)") << "\n";
    return 0;
}
