#include "server/breaker.hpp"

#include <algorithm>

namespace gpusel::server {

void CircuitBreaker::tick(double now_ns) noexcept {
    if (state_ == BreakerState::open && now_ns >= open_until_ns_) {
        state_ = BreakerState::half_open;
    }
}

void CircuitBreaker::record_success(double now_ns) noexcept {
    tick(now_ns);
    switch (state_) {
        case BreakerState::closed:
            consecutive_failures_ = 0;
            break;
        case BreakerState::half_open:
            // Probe succeeded: the backend recovered.  Reset the backoff
            // ladder so the next incident starts from the initial window.
            state_ = BreakerState::closed;
            consecutive_failures_ = 0;
            backoff_ns_ = 0.0;
            break;
        case BreakerState::open:
            // Stale success from work planned before the trip; ignore.
            break;
    }
}

void CircuitBreaker::record_failure(double now_ns) noexcept {
    tick(now_ns);
    switch (state_) {
        case BreakerState::closed:
            if (++consecutive_failures_ >= cfg_.failure_threshold) open(now_ns);
            break;
        case BreakerState::half_open:
            // Probe failed: straight back to open with a doubled window.
            open(now_ns);
            break;
        case BreakerState::open:
            break;
    }
}

void CircuitBreaker::open(double now_ns) noexcept {
    backoff_ns_ = backoff_ns_ <= 0.0 ? cfg_.initial_backoff_ns
                                     : std::min(backoff_ns_ * 2.0, cfg_.max_backoff_ns);
    state_ = BreakerState::open;
    open_until_ns_ = now_ns + backoff_ns_;
    consecutive_failures_ = 0;
}

std::uint32_t BreakerBank::mask() const noexcept {
    std::uint32_t m = 0;
    for (const core::BackendKind k : core::kBackends) {
        if (of(k).quarantined()) m |= core::backend_bit(k);
    }
    return m;
}

std::uint32_t BreakerBank::sync(simt::Device& dev, double now_ns) noexcept {
    for (auto& b : breakers_) b.tick(now_ns);
    const std::uint32_t m = mask();
    dev.set_backend_quarantine(m);
    return m;
}

}  // namespace gpusel::server
