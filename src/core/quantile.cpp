#include "core/quantile.hpp"

#include <cmath>
#include <stdexcept>

namespace gpusel::core {

Result<std::size_t> try_quantile_rank(std::size_t n, double q, QuantileMethod method) {
    if (n == 0) {
        return Status::failure(SelectError::empty_input, "quantile of an empty dataset");
    }
    // The negated comparison also rejects NaN quantile positions.
    if (!(q >= 0.0 && q <= 1.0)) {
        return Status::failure(SelectError::invalid_argument, "quantile must be in [0, 1]");
    }
    const double pos = q * static_cast<double>(n - 1);
    double r = 0.0;
    switch (method) {
        case QuantileMethod::lower: r = std::floor(pos); break;
        case QuantileMethod::nearest: r = std::round(pos); break;
        case QuantileMethod::higher: r = std::ceil(pos); break;
    }
    return static_cast<std::size_t>(r);
}

std::size_t quantile_rank(std::size_t n, double q, QuantileMethod method) {
    Result<std::size_t> r = try_quantile_rank(n, q, method);
    if (!r.ok()) throw std::invalid_argument(r.status().message);
    return r.value();
}

}  // namespace gpusel::core
