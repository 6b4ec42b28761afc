#pragma once
// Total key order for floating-point selection (docs/robustness.md).
//
// IEEE `<` is a partial order: NaN compares false against everything
// (including itself) and -0.0 == +0.0.  Fed raw into the bucketing kernels
// that breaks the SearchTree invariants -- a NaN takes a data-dependent
// path through the comparison tree and the "rank" of a NaN is undefined.
// The repo's contract instead defines one total order for selection,
// ranking, top-k and sorting:
//
//     -inf < ... < -0.0 == +0.0 < ... < +inf < NaN
//
// with all NaN payloads mutually equal (the IEEE-754 totalOrder direction
// for positive NaNs, collapsed to one equivalence class).  -0.0 and +0.0
// stay one equivalence class, exactly as under `<` -- selection never
// distinguishes them, and which representative a rank query returns is
// unspecified, matching std::nth_element.
//
// Enforcement strategy: the device kernels never see a NaN.  The
// single-device opening (core/opening.hpp) runs a host-side staging
// pre-pass (partition_nans_to_back, untimed like all staging copies in
// this simulator) that moves NaNs to the tail; ranks inside the tail
// answer quiet NaN directly.  The comparators here are for host-side
// reference code (CPU baselines, SearchTree::find_bucket callers, tests)
// and for the few kernels that compare against a caller-provided needle
// or threshold (rank_of, the ArgPair gather), where the needle may
// legitimately be NaN.  On NaN-free data total_less
// decides exactly like `<`, so fault-free event streams are unchanged.

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>

namespace gpusel::core {

/// Detects key+payload element types (core/key_payload.hpp and structural
/// equivalents): anything with .key and .payload members.  Their total
/// order is the key total order with the payload as tie-break, so that
/// (key, index) pairs order strictly and argselect is deterministic.
template <typename T, typename = void>
inline constexpr bool is_key_payload_v = false;
template <typename T>
inline constexpr bool is_key_payload_v<
    T, std::void_t<decltype(std::declval<T>().key), decltype(std::declval<T>().payload)>> = true;

/// True if x is a NaN key (false for every non-floating-point type; for
/// key+payload elements, decided by the key).
template <typename T>
[[nodiscard]] constexpr bool is_nan_key(T x) noexcept {
    if constexpr (is_key_payload_v<T>) {
        return is_nan_key(x.key);
    } else if constexpr (std::is_floating_point_v<T>) {
        return x != x;
    } else {
        (void)x;
        return false;
    }
}

/// Strict weak order: `<` on non-NaN keys, NaN above everything, all NaNs
/// equal.  Key+payload elements order by the key's total order, then by
/// payload -- a *strict* total order when payloads are distinct, including
/// within the NaN tail.
template <typename T>
[[nodiscard]] constexpr bool total_less(T a, T b) noexcept {
    if constexpr (is_key_payload_v<T>) {
        if (total_less(a.key, b.key)) return true;
        if (total_less(b.key, a.key)) return false;
        return a.payload < b.payload;
    } else {
        if constexpr (std::is_floating_point_v<T>) {
            if (is_nan_key(a)) return false;   // NaN is the maximum: never less
            if (is_nan_key(b)) return true;    // non-NaN < NaN
        }
        return a < b;
    }
}

/// Equality of the total order: `==` on non-NaN keys, NaN == NaN.
/// Key+payload elements are equal only if both components are.
template <typename T>
[[nodiscard]] constexpr bool total_equal(T a, T b) noexcept {
    if constexpr (is_key_payload_v<T>) {
        return total_equal(a.key, b.key) && a.payload == b.payload;
    } else {
        if constexpr (std::is_floating_point_v<T>) {
            if (is_nan_key(a) || is_nan_key(b)) return is_nan_key(a) && is_nan_key(b);
        }
        return a == b;
    }
}

/// The representative NaN returned for ranks inside the NaN tail (for
/// key+payload elements: NaN key, value-initialized payload).
template <typename T>
[[nodiscard]] constexpr T quiet_nan() noexcept {
    if constexpr (is_key_payload_v<T>) {
        using K = std::remove_cvref_t<decltype(std::declval<T>().key)>;
        return T{quiet_nan<K>(), {}};
    } else {
        static_assert(std::is_floating_point_v<T>);
        return std::numeric_limits<T>::quiet_NaN();
    }
}

/// Counts NaN keys without reordering (read-only inputs).
template <typename T>
[[nodiscard]] std::size_t count_nan_keys(std::span<const T> data) noexcept {
    if constexpr (!std::is_floating_point_v<T> && !is_key_payload_v<T>) {
        (void)data;
        return 0;
    } else {
        std::size_t m = 0;
        for (const T x : data) {
            if (is_nan_key(x)) ++m;
        }
        return m;
    }
}

/// Staging pre-pass: moves every NaN key behind the non-NaN keys (order
/// within each group is unspecified) and returns the NaN count.  Host-side
/// and untimed, like the staging copies it piggybacks on.  No-op returning
/// 0 for non-floating-point types and NaN-free data.
template <typename T>
std::size_t partition_nans_to_back(std::span<T> data) noexcept {
    if constexpr (!std::is_floating_point_v<T> && !is_key_payload_v<T>) {
        (void)data;
        return 0;
    } else {
        // NaN-free data, the common case, costs one read-only counting
        // pass: the partition loop below runs at half its speed.
        if (count_nan_keys(std::span<const T>(data)) == 0) return 0;
        std::size_t lo = 0;
        std::size_t hi = data.size();
        while (lo < hi) {
            if (!is_nan_key(data[lo])) {
                ++lo;
            } else {
                --hi;
                std::swap(data[lo], data[hi]);
            }
        }
        return data.size() - lo;
    }
}

}  // namespace gpusel::core
