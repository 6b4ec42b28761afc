#pragma once
// Typed error channel for the selection stack (see docs/robustness.md).
//
// Deep code used to signal failure with `throw std::logic_error` from the
// middle of a recursion cascade; under fault injection (simt/fault.hpp) or
// degenerate inputs that turned every robustness problem into a crash.  The
// pipeline and all front-ends now report through Status / Result<T>:
//
//   * SelectError  -- the closed error taxonomy.  Every failure mode of a
//                     selection call maps to exactly one code.
//   * Status       -- code + human-readable message; `ok()` is the success
//                     sentinel.
//   * Result<T>    -- expected<T, Status>-style sum type returned by the
//                     `try_*` front-end entry points.
//
// Each front-end has exactly one entry point, its try_* function.  Callers
// that cannot handle a failure use `try_x(...).value()`, which aborts with
// the Status message on an error in every build type.  Only quantile_rank
// and SelectServer's constructor throw std::invalid_argument (a constructor
// cannot return a Status).

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace gpusel::core {

/// Closed taxonomy of selection failures (docs/robustness.md "Error
/// taxonomy").  Values are stable; new codes are appended.
enum class SelectError {
    none = 0,
    /// Malformed configuration or arguments (bad bucket count, malformed
    /// batch offsets, empty sequence in a batch, invalid quantile, ...).
    invalid_argument,
    /// Requested rank (or k) does not exist in the input: rank >= n,
    /// k == 0, k > n, or any rank of a multi-rank query out of range.
    rank_out_of_range,
    /// The operation needs a non-empty input (e.g. histogram of nothing).
    empty_input,
    /// NaN keys present while the config demands NanPolicy::reject.
    nan_keys_rejected,
    /// Device memory allocation failed and pool-trim + bounded retry did
    /// not recover it (permanent allocation fault).
    allocation_failed,
    /// A kernel launch failed and bounded relaunch (with a fresh sample
    /// salt where applicable) did not recover it (permanent launch fault).
    launch_failed,
    /// The guaranteed-progress policy ran out of road: resampling and the
    /// deterministic fallback could not shrink the tracked bucket.
    no_progress,
    /// Hard recursion-depth cap hit; the input terminates by construction,
    /// this code exists so *every* loop in the stack is provably bounded.
    depth_exceeded,
    /// Invariant violation inside the pipeline (a bug, not an input or
    /// fault condition); carries the diagnostic message.
    internal,
    /// A sanitizer detected a contract violation while active.  SimTSan
    /// (simt/sanitizer.hpp): a cross-block data race, a shared-memory epoch
    /// hazard, an out-of-bounds primitive, an uninitialized (poisoned)
    /// read, or a clobbered guard band.  StreamSan (simt/streamsan.hpp): a
    /// cross-stream access with no happens-before edge, an un-gated pool
    /// reuse, a wait on a never-recorded event, or a fork/join cycle.
    /// Never retried -- the code is buggy, not unlucky.
    sanitizer_violation,
    /// Admission control shed the request: the server's bounded queue (or
    /// the tenant's share of it) was full, or the server is draining.  The
    /// request was never executed; retrying later is safe (docs/service.md).
    overloaded,
    /// The request cannot (or did not) finish inside its deadline budget:
    /// rejected up front by admission control when the queue delay plus the
    /// estimated service time already exceeds the budget, or aborted
    /// between pipeline levels when a descent overran an armed
    /// SampleSelectConfig::deadline_ns.
    deadline_exceeded,
};

[[nodiscard]] constexpr const char* to_string(SelectError e) noexcept {
    switch (e) {
        case SelectError::none: return "none";
        case SelectError::invalid_argument: return "invalid_argument";
        case SelectError::rank_out_of_range: return "rank_out_of_range";
        case SelectError::empty_input: return "empty_input";
        case SelectError::nan_keys_rejected: return "nan_keys_rejected";
        case SelectError::allocation_failed: return "allocation_failed";
        case SelectError::launch_failed: return "launch_failed";
        case SelectError::no_progress: return "no_progress";
        case SelectError::depth_exceeded: return "depth_exceeded";
        case SelectError::internal: return "internal";
        case SelectError::sanitizer_violation: return "sanitizer_violation";
        case SelectError::overloaded: return "overloaded";
        case SelectError::deadline_exceeded: return "deadline_exceeded";
    }
    return "unknown";
}

/// Error code plus context message.  Default-constructed Status is success.
/// [[nodiscard]]: a dropped Status silently swallows a failure -- every
/// producer either checks ok() or explicitly discards with a cast.
struct [[nodiscard]] Status {
    SelectError code = SelectError::none;
    std::string message;

    [[nodiscard]] bool ok() const noexcept { return code == SelectError::none; }

    [[nodiscard]] static Status success() { return {}; }
    [[nodiscard]] static Status failure(SelectError code, std::string message) {
        assert(code != SelectError::none);
        return {code, std::move(message)};
    }
    /// "code: message" for logs and diagnostics.
    [[nodiscard]] std::string to_message() const {
        return std::string(to_string(code)) + ": " + message;
    }
};

/// Minimal expected<T, Status>: either a value or a non-ok Status.
/// [[nodiscard]] like Status: ignoring a Result drops both the answer and
/// any failure it carries.
template <typename T>
class [[nodiscard]] Result {
public:
    Result(T value) : value_(std::move(value)) {}           // NOLINT(google-explicit-constructor)
    Result(Status status) : status_(std::move(status)) {    // NOLINT(google-explicit-constructor)
        assert(!status_.ok() && "Result needs a value or a failure Status");
    }
    Result(SelectError code, std::string message)
        : status_(Status::failure(code, std::move(message))) {}

    [[nodiscard]] bool ok() const noexcept { return value_.has_value(); }
    explicit operator bool() const noexcept { return ok(); }

    [[nodiscard]] const Status& status() const noexcept { return status_; }
    [[nodiscard]] SelectError error() const noexcept { return status_.code; }

    /// The value.  Accessing the value of a failed Result prints the Status
    /// and aborts in every build type (a release build must not read an
    /// empty optional).
    [[nodiscard]] const T& value() const& noexcept {
        check();
        return *value_;
    }
    [[nodiscard]] T& value() & noexcept {
        check();
        return *value_;
    }
    /// By value on an rvalue Result, so `const auto& v = try_x(...).value();`
    /// binds to a lifetime-extended copy instead of a dead temporary.
    [[nodiscard]] T value() && {
        check();
        return std::move(*value_);
    }
    /// Moves the value out (the Result is left valueless).
    [[nodiscard]] T take() {
        check();
        return std::move(*value_);
    }

private:
    void check() const noexcept {
        if (!ok()) {
            std::fprintf(stderr, "gpusel: value() of a failed Result: %s\n",
                         status_.to_message().c_str());
            std::abort();
        }
    }

    std::optional<T> value_;
    Status status_;  ///< success() while value_ holds
};

}  // namespace gpusel::core
