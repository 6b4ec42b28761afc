#include "simt/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string_view>

namespace gpusel::simt::simd {

namespace {

/// Highest tier the executing CPU supports (the compile-time tier can
/// exceed it when binaries move between machines).
Level cpu_level() noexcept {
#if defined(__GNUC__) || defined(__clang__)
#if defined(GPUSEL_SIMD_AVX2)
    if (__builtin_cpu_supports("avx2")) return Level::avx2;
#endif
    return Level::scalar;
#else
    return compiled_level();
#endif
}

Level min_level(Level a, Level b) noexcept {
    return static_cast<int>(a) < static_cast<int>(b) ? a : b;
}

/// GPUSEL_SIMD parse: "off"/"0"/"scalar" disable; unset or any other value
/// ("avx2", the retired "avx512", ...) leaves the fastest supported tier
/// active.  The retired "sse2" keeps its cap meaning: the highest tier at or
/// below it.
Level env_cap() noexcept {
    const char* env = std::getenv("GPUSEL_SIMD");
    if (env == nullptr) return Level::avx2;
    const std::string_view v{env};
    if (v == "off" || v == "0" || v == "scalar" || v == "none" || v == "sse2") {
        return Level::scalar;
    }
    return Level::avx2;
}

/// Hardware-and-environment ceiling, computed once.
Level hard_cap() noexcept {
    static const Level cap = min_level(min_level(compiled_level(), cpu_level()), env_cap());
    return cap;
}

/// In-process override (tests sweep tiers); relaxed is fine -- callers
/// that flip it synchronize externally.
std::atomic<Level> g_soft_cap{Level::avx2};

}  // namespace

Level active_level() noexcept {
    return min_level(hard_cap(), g_soft_cap.load(std::memory_order_relaxed));
}

void set_level(Level cap) noexcept { g_soft_cap.store(cap, std::memory_order_relaxed); }

void set_enabled(bool on) noexcept { set_level(on ? Level::avx2 : Level::scalar); }

const char* level_name(Level l) noexcept {
    switch (l) {
        case Level::scalar: return "scalar";
        case Level::avx2: return "avx2";
    }
    return "unknown";
}

}  // namespace gpusel::simt::simd
