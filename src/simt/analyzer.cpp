#include "simt/analyzer.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace gpusel::simt {

SanMode mode_from_env(const char* var) {
    const char* env = std::getenv(var);
    if (env == nullptr) return SanMode::off;
    const std::string v(env);
    if (v.empty() || v == "0" || v == "off") return SanMode::off;
    if (v == "1" || v == "strict" || v == "on") return SanMode::strict;
    if (v == "2" || v == "collect") return SanMode::collect;
    throw std::invalid_argument(std::string(var) +
                                " must be one of 0/off, 1/strict/on, 2/collect: \"" + v + "\"");
}

}  // namespace gpusel::simt
