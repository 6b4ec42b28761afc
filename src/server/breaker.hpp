#pragma once
// Per-backend circuit breaker (docs/service.md "Circuit breaker").
//
// The server feeds each dispatch round's outcome into one breaker per
// selection backend.  A backend that keeps faulting (terminal fault Status,
// or fault-retry pressure above the configured threshold even when retries
// ultimately succeeded) trips its breaker open: the backend's bit is set in
// simt::Device::backend_quarantine() and the planner routes around it.
// After an exponential-backoff window the breaker goes half-open -- the
// quarantine bit clears so the next planned selection probes the backend --
// and one success closes it while one failure re-opens it with a doubled
// window.  States:
//
//   closed     -- healthy; failures count toward failure_threshold.
//   open       -- quarantined until open_until_ns; planner avoids it.
//   half_open  -- backoff expired; one probe decides closed vs re-open.
//
// The breaker itself is clock-agnostic host bookkeeping: `now` is the
// server's simulated-clock timestamp, and the BreakerBank owns the mapping
// onto the device quarantine mask.

#include <array>
#include <cstdint>

#include "core/backend.hpp"
#include "server/request.hpp"
#include "simt/device.hpp"

namespace gpusel::server {

enum class BreakerState : std::uint8_t { closed, open, half_open };

[[nodiscard]] constexpr const char* breaker_state_name(BreakerState s) noexcept {
    switch (s) {
        case BreakerState::closed: return "closed";
        case BreakerState::open: return "open";
        case BreakerState::half_open: return "half_open";
    }
    return "?";
}

/// One backend's breaker.
class CircuitBreaker {
public:
    explicit CircuitBreaker(const BreakerConfig& cfg = {}) : cfg_(cfg) {}

    /// Advances open -> half_open when the backoff window expired.
    void tick(double now_ns) noexcept;
    /// A successful planned use of the backend: closes a half-open breaker
    /// (and resets the backoff ladder), clears a closed breaker's failure
    /// run.  Success while open is ignored (stale in-flight work).
    void record_success(double now_ns) noexcept;
    /// A failure attributed to the backend: trips a closed breaker after
    /// failure_threshold consecutive failures; re-opens a half-open breaker
    /// with a doubled backoff window.
    void record_failure(double now_ns) noexcept;

    [[nodiscard]] BreakerState state() const noexcept { return state_; }
    /// True while the planner should avoid the backend (state == open).
    [[nodiscard]] bool quarantined() const noexcept { return state_ == BreakerState::open; }
    [[nodiscard]] double open_until_ns() const noexcept { return open_until_ns_; }
    [[nodiscard]] int consecutive_failures() const noexcept { return consecutive_failures_; }

private:
    void open(double now_ns) noexcept;

    BreakerConfig cfg_;
    BreakerState state_ = BreakerState::closed;
    int consecutive_failures_ = 0;
    double backoff_ns_ = 0.0;  ///< current window; doubles per re-trip
    double open_until_ns_ = 0.0;
};

/// The server's set of breakers, one per BackendKind, plus the projection
/// onto the device's planner quarantine mask.
class BreakerBank {
public:
    explicit BreakerBank(const BreakerConfig& cfg = {})
        : breakers_{CircuitBreaker(cfg), CircuitBreaker(cfg)} {}

    [[nodiscard]] CircuitBreaker& of(core::BackendKind k) noexcept {
        return breakers_[static_cast<std::size_t>(k)];
    }
    [[nodiscard]] const CircuitBreaker& of(core::BackendKind k) const noexcept {
        return breakers_[static_cast<std::size_t>(k)];
    }

    /// Ticks every breaker to `now` and installs the resulting quarantine
    /// mask on the device.  Returns the mask.
    std::uint32_t sync(simt::Device& dev, double now_ns) noexcept;

    /// Quarantine mask implied by the current states (no device write).
    [[nodiscard]] std::uint32_t mask() const noexcept;

private:
    std::array<CircuitBreaker, std::size(core::kBackends)> breakers_;
};

}  // namespace gpusel::server
