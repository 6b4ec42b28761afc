#pragma once
// Key + payload element type for the selection pipeline (argselect /
// select-by-key; the avx512_argsort / avx512_qsort_kv shape).
//
// The pipeline's kernels are templated over the element type and only need
// `<` / `==` plus trivial copyability.  KeyPayload supplies a *strict*
// comparison -- key first, payload as tie-break -- so that selection over
// (key, index) pairs is fully deterministic: equal keys are ordered by
// payload, which for argselect is the element's original position.  This
// is the index stability policy: `try_argselect(keys, rank)` returns exactly
// the pair std::nth_element would place at `rank` under the same
// lexicographic order.
//
// NaN keys mirror raw float semantics under `operator<` (both directions
// false, so kernels must never see them -- the front-ends' staging
// pre-pass compacts them out, see core/float_order.hpp, which orders
// NaN-key pairs above everything and by payload among themselves).
//
// An 8-byte KeyPayload<float, uint32> is trivially copyable, so it moves
// through the masked compress-store engines (simt/simd.hpp) bit-for-bit
// like a double.

#include <cstdint>
#include <limits>
#include <type_traits>

namespace gpusel::core {

template <typename K, typename P>
struct KeyPayload {
    using key_type = K;
    using payload_type = P;

    K key;
    P payload;

    friend constexpr bool operator<(const KeyPayload& a, const KeyPayload& b) noexcept {
        if (a.key < b.key) return true;
        if (b.key < a.key) return false;
        // Keys tie (this includes -0.0 vs +0.0): order by payload.  NaN
        // keys compare unequal, so NaN pairs stay mutually unordered under
        // the raw `<`, exactly like raw float NaN.
        if (a.key == b.key) return a.payload < b.payload;
        return false;
    }
    friend constexpr bool operator==(const KeyPayload& a, const KeyPayload& b) noexcept {
        return a.key == b.key && a.payload == b.payload;
    }
};

/// The argselect element: float key + 32-bit original position.
using ArgPair = KeyPayload<float, std::uint32_t>;

static_assert(sizeof(ArgPair) == 8 && std::is_trivially_copyable_v<ArgPair>,
              "ArgPair must be an 8-byte trivially-copyable value for the "
              "compress-store fast path");

}  // namespace gpusel::core

/// Bitonic padding sentinel: the networks pad partial inputs with
/// numeric_limits<T>::infinity(), which must sort >= every real element.
/// {+inf key, max payload} is the maximum of the pair order.
template <typename K, typename P>
struct std::numeric_limits<gpusel::core::KeyPayload<K, P>> {
    static constexpr bool is_specialized = true;
    static constexpr gpusel::core::KeyPayload<K, P> infinity() noexcept {
        return {std::numeric_limits<K>::infinity(), std::numeric_limits<P>::max()};
    }
    static constexpr gpusel::core::KeyPayload<K, P> max() noexcept {
        return {std::numeric_limits<K>::max(), std::numeric_limits<P>::max()};
    }
    static constexpr gpusel::core::KeyPayload<K, P> lowest() noexcept {
        return {std::numeric_limits<K>::lowest(), std::numeric_limits<P>::lowest()};
    }
};
