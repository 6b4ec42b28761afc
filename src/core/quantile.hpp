#pragma once
// Quantile convenience layer over the selection algorithms: maps q in [0,1]
// to a 0-based rank with an explicit tie-breaking method.  try_quantile
// answers one exact quantile through SampleSelect; approximate or multiple
// quantiles pass quantile_rank's ranks to try_approx_select or
// try_multi_select.  All of them execute their bucketing levels through
// core::SelectionPipeline (see docs/architecture.md), so quantile queries
// share the pooled device arena with every other front-end.  ("Quantile
// selection in order statistics" is the first application the paper's
// introduction lists.)

#include <cstddef>
#include <span>

#include "core/sample_select.hpp"

namespace gpusel::core {

/// How a non-integer quantile position maps to a rank.
enum class QuantileMethod {
    lower,    ///< floor((n-1) q)
    nearest,  ///< round((n-1) q)
    higher,   ///< ceil((n-1) q)
};

/// Rank of the q-quantile of an n-element dataset.  q must be in [0, 1],
/// n > 0; anything else throws std::invalid_argument.
[[nodiscard]] std::size_t quantile_rank(std::size_t n, double q,
                                        QuantileMethod method = QuantileMethod::nearest);

/// Non-throwing quantile_rank: empty datasets and out-of-range (or NaN)
/// quantile positions come back as a typed Status.
[[nodiscard]] Result<std::size_t> try_quantile_rank(
    std::size_t n, double q, QuantileMethod method = QuantileMethod::nearest);

/// Exact q-quantile via SampleSelect: bad quantile positions and every
/// selection failure mode surface as a typed Status.
template <typename T>
[[nodiscard]] Result<T> try_quantile(simt::Device& dev, std::span<const T> data, double q,
                                     const SampleSelectConfig& cfg = {},
                                     QuantileMethod method = QuantileMethod::nearest) {
    auto rank = try_quantile_rank(data.size(), q, method);
    if (!rank.ok()) return rank.status();
    auto sel = try_sample_select<T>(dev, data, rank.value(), cfg);
    if (!sel.ok()) return sel.status();
    return sel.value().value;
}

}  // namespace gpusel::core
