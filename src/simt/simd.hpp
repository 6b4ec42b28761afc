#pragma once
// Portable lane-vector layer for the SIMT simulator's warp hot loops.
//
// The simulator models a 32-lane warp; on the host that tile maps exactly
// onto x86 vector registers (4 x 8-lane AVX2 for floats).  This header
// provides the small set of *semantics-exact* tile primitives the hot
// loops need -- masked compares, search-tree traversal, compress-store,
// bitonic compare-exchange and a horizontal histogram-accumulate -- each
// with a scalar fallback that is the original per-lane loop.
//
// Contract: every primitive is bit-identical to its scalar fallback on all
// inputs, including NaN and duplicate handling (compares use the exact
// predicate of the scalar code, e.g. `!(v < e)` maps to _CMP_NLT_UQ so that
// unordered operands take the same branch).  Event charging is not done
// here: callers charge per *tile* (see WarpCtx::add_instr etc.), so the
// counters do not depend on which tier executed the arithmetic.
//
// Two tiers: the scalar reference and AVX2.
//   * compile time: AVX2 when the build enables it (CMake probes it with
//     check_cxx_source_runs; see the top-level CMakeLists).
//   * run time: capped by the GPUSEL_SIMD environment variable
//     ("off"/"0"/"scalar" or "avx2"; unset or any other value = fastest;
//     the retired "sse2" caps at scalar) and a defensive
//     __builtin_cpu_supports check.  Tests flip tiers in-process via
//     set_level()/set_enabled().

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#if !defined(GPUSEL_SIMD_DISABLE) && defined(__AVX2__)
#define GPUSEL_SIMD_AVX2 1
#include <immintrin.h>
#endif

namespace gpusel::simt::simd {

/// One simulated warp tile: the vector primitives below operate on up to
/// this many lanes (the fast paths require exactly kTileLanes).
inline constexpr int kTileLanes = 32;

/// Largest counter array histogram_accumulate() accepts; larger universes
/// must use the caller's own scratch (BlockCtx::distinct).
inline constexpr std::size_t kMaxHistogramBins = 4096;

/// Values 1 and 3 were the retired SSE2 and AVX-512 tiers; the others keep
/// their numbers because BM_FilterCompressStore names its bench rows by them.
enum class Level : int { scalar = 0, avx2 = 2 };

/// Best tier compiled into this binary.
[[nodiscard]] constexpr Level compiled_level() noexcept {
#if defined(GPUSEL_SIMD_AVX2)
    return Level::avx2;
#else
    return Level::scalar;
#endif
}

/// Tier used by the dispatch functions right now (compiled tier, capped by
/// GPUSEL_SIMD / set_level / CPU support).
[[nodiscard]] Level active_level() noexcept;
/// Caps the active tier (tests sweep scalar vs. vector in one process).
void set_level(Level cap) noexcept;
/// set_enabled(false) == set_level(scalar); set_enabled(true) removes the cap.
void set_enabled(bool on) noexcept;
[[nodiscard]] const char* level_name(Level l) noexcept;

// ===========================================================================
// Scalar reference tier (always available; the vector tiers must match it
// bit for bit).
// ===========================================================================

namespace scalar {

/// Search-tree traversal in "level-local index" form: j_{L+1} = 2 j_L + r.
/// Identical decisions to SearchTree::find_bucket (j == i - (2^h - 1)).
template <typename T>
inline void traverse_tree(const T* nodes, const std::int32_t* leq, std::int32_t height,
                          const T* elems, int lanes, std::int32_t* bucket) {
    for (int l = 0; l < lanes; ++l) {
        const T e = elems[l];
        std::int32_t j = 0;
        for (std::int32_t lev = 0; lev < height; ++lev) {
            const std::size_t idx = (std::size_t{1} << lev) - 1 + static_cast<std::size_t>(j);
            const bool left = leq[idx] ? !(nodes[idx] < e) : (e < nodes[idx]);
            j = 2 * j + (left ? 0 : 1);
        }
        bucket[l] = j;
    }
}

template <typename T>
inline void bipartition_sides(const T* elems, T pivot, int lanes, std::int32_t* side) {
    for (int l = 0; l < lanes; ++l) side[l] = elems[l] < pivot ? 0 : 1;
}

template <typename T>
inline void tripartition_sides(const T* elems, T pivot, int lanes, std::int32_t* side) {
    for (int l = 0; l < lanes; ++l) {
        side[l] = elems[l] < pivot ? 0 : (elems[l] == pivot ? 1 : 2);
    }
}

template <typename T>
inline std::uint32_t cmp_lt_mask(const T* elems, T pivot, int lanes) {
    std::uint32_t m = 0;
    for (int l = 0; l < lanes; ++l) {
        if (elems[l] < pivot) m |= (1u << l);
    }
    return m;
}

template <typename T>
inline std::uint32_t cmp_gt_mask(const T* elems, T pivot, int lanes) {
    std::uint32_t m = 0;
    for (int l = 0; l < lanes; ++l) {
        if (pivot < elems[l]) m |= (1u << l);
    }
    return m;
}

inline std::uint32_t byte_eq_mask(const std::uint8_t* v, std::uint8_t x, int lanes) {
    std::uint32_t m = 0;
    for (int l = 0; l < lanes; ++l) {
        if (v[l] == x) m |= (1u << l);
    }
    return m;
}

inline std::uint32_t byte_gt_mask(const std::uint8_t* v, std::uint8_t x, int lanes) {
    std::uint32_t m = 0;
    for (int l = 0; l < lanes; ++l) {
        if (v[l] > x) m |= (1u << l);
    }
    return m;
}

/// Masked compress-store reference: the elements of src whose mask bit is
/// set are written to dst contiguously in lane order.  Mask bits at
/// positions >= lanes are ignored.  Returns the count written.
template <typename T>
inline int compress_store(const T* src, std::uint32_t mask, int lanes, T* dst) {
    int n = 0;
    for (int l = 0; l < lanes; ++l) {
        if ((mask >> l) & 1u) dst[n++] = src[l];
    }
    return n;
}

inline void pack_low_bytes(const std::int32_t* v, int lanes, std::uint8_t* out) {
    for (int l = 0; l < lanes; ++l) out[l] = static_cast<std::uint8_t>(v[l]);
}

/// One (k, j) step of the bitonic network over m (pow2) elements --
/// exactly detail::run_network's inner loop.
template <typename T>
inline void bitonic_step(T* a, std::size_t m, std::size_t j, std::size_t k) {
    for (std::size_t i = 0; i < m; ++i) {
        const std::size_t partner = i ^ j;
        if (partner > i) {
            const bool ascending = (i & k) == 0;
            if ((a[partner] < a[i]) == ascending) {
                const T tmp = a[i];
                a[i] = a[partner];
                a[partner] = tmp;
            }
        }
    }
}

}  // namespace scalar

// ===========================================================================
// Horizontal histogram-accumulate (bitset membership; scalar arithmetic --
// scatter-with-conflicts does not vectorize profitably, but the bitset
// beats the epoch-array used previously by keeping state in registers).
// ===========================================================================

/// counters[bucket[l]] += val for every lane (plain adds: the shared-memory
/// atomic flavour, where one block owns the counters); returns the distinct
/// count for collision accounting.  Requires num_bins <= kMaxHistogramBins.
inline int histogram_accumulate(std::int32_t* counters, std::size_t num_bins,
                                const std::int32_t* bucket, std::int32_t val, int lanes) {
    std::uint64_t words[kMaxHistogramBins / 64];
    const std::size_t nw = (num_bins + 63) / 64;
    std::memset(words, 0, nw * sizeof(std::uint64_t));
    int d = 0;
    for (int l = 0; l < lanes; ++l) {
        const auto b = static_cast<std::uint32_t>(bucket[l]);
        const std::uint64_t bit = std::uint64_t{1} << (b & 63u);
        d += (words[b >> 6] & bit) == 0 ? 1 : 0;
        words[b >> 6] |= bit;
        counters[b] += val;
    }
    return d;
}

// ===========================================================================
// AVX2 tier: 8-lane float tiles with in-register table permutes for the
// upper search-tree levels and hardware gathers below them.
// ===========================================================================

#if defined(GPUSEL_SIMD_AVX2)
namespace avx2 {

/// 32-lane float search-tree traversal.  Level L's nodes occupy the
/// contiguous heap slice [2^L-1, 2^L+1-1), so small levels resolve with
/// permutes on in-register tables (x86-simd-sort style) and only deep
/// levels pay for gathers.
inline void traverse_tree(const float* nodes, const std::int32_t* leq, std::int32_t height,
                          const float* elems, std::int32_t* bucket) {
    const __m256i one = _mm256_set1_epi32(1);
    const __m256i zero = _mm256_setzero_si256();
    __m256 e[4];
    __m256i j[4];
    for (int v = 0; v < 4; ++v) {
        e[v] = _mm256_loadu_ps(elems + 8 * v);
        j[v] = _mm256_setzero_si256();
    }
    for (std::int32_t lev = 0; lev < height; ++lev) {
        const std::size_t size = std::size_t{1} << lev;
        const float* tab = nodes + (size - 1);
        const std::int32_t* qtab = leq + (size - 1);
        __m256 t0, t1;
        __m256i q0, q1;
        if (size <= 8) {
            // Masked load keeps the read inside the node array when the
            // level is narrower than one vector.
            const __m256i lm = _mm256_cmpgt_epi32(
                _mm256_set1_epi32(static_cast<std::int32_t>(size)),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
            t0 = _mm256_maskload_ps(tab, lm);
            q0 = _mm256_maskload_epi32(qtab, lm);
            t1 = t0;
            q1 = q0;
        } else if (size == 16) {
            t0 = _mm256_loadu_ps(tab);
            t1 = _mm256_loadu_ps(tab + 8);
            q0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(qtab));
            q1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(qtab + 8));
        }
        for (int v = 0; v < 4; ++v) {
            __m256 node;
            __m256i q;
            if (size <= 8) {
                node = _mm256_permutevar8x32_ps(t0, j[v]);
                q = _mm256_permutevar8x32_epi32(q0, j[v]);
            } else if (size == 16) {
                // Select between the two 8-entry halves by index bit 3.
                const __m256 sel = _mm256_castsi256_ps(_mm256_slli_epi32(j[v], 28));
                node = _mm256_blendv_ps(_mm256_permutevar8x32_ps(t0, j[v]),
                                        _mm256_permutevar8x32_ps(t1, j[v]), sel);
                q = _mm256_castps_si256(
                    _mm256_blendv_ps(_mm256_castsi256_ps(_mm256_permutevar8x32_epi32(q0, j[v])),
                                     _mm256_castsi256_ps(_mm256_permutevar8x32_epi32(q1, j[v])),
                                     sel));
            } else {
                node = _mm256_i32gather_ps(tab, j[v], 4);
                q = _mm256_i32gather_epi32(qtab, j[v], 4);
            }
            // left = leq ? !(node < e) : (e < node); unordered (NaN)
            // operands take the same side as the scalar predicates.
            const __m256 nlt = _mm256_cmp_ps(node, e[v], _CMP_NLT_UQ);
            const __m256 lt = _mm256_cmp_ps(e[v], node, _CMP_LT_OQ);
            const __m256i not_leq = _mm256_cmpeq_epi32(q, zero);
            const __m256i left =
                _mm256_or_si256(_mm256_and_si256(not_leq, _mm256_castps_si256(lt)),
                                _mm256_andnot_si256(not_leq, _mm256_castps_si256(nlt)));
            // j = 2*j + (left ? 0 : 1): left mask is -1, so 1 + left is it.
            j[v] = _mm256_add_epi32(_mm256_add_epi32(j[v], j[v]), _mm256_add_epi32(one, left));
        }
    }
    for (int v = 0; v < 4; ++v) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(bucket + 8 * v), j[v]);
    }
}

/// 32-lane double traversal: 4-lane gathers at every level (no wide
/// permute tables for 8-byte lanes; gathers still beat the scalar chain).
inline void traverse_tree(const double* nodes, const std::int32_t* leq, std::int32_t height,
                          const double* elems, std::int32_t* bucket) {
    const __m128i one = _mm_set1_epi32(1);
    const __m128i zero = _mm_setzero_si128();
    // Narrows a 4x64-bit compare mask to 4x32 lanes.
    const __m256i narrow_idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    for (int v = 0; v < 8; ++v) {
        const __m256d e = _mm256_loadu_pd(elems + 4 * v);
        __m128i j = _mm_setzero_si128();
        for (std::int32_t lev = 0; lev < height; ++lev) {
            const std::size_t size = std::size_t{1} << lev;
            const double* tab = nodes + (size - 1);
            const std::int32_t* qtab = leq + (size - 1);
            const __m256d node = _mm256_i32gather_pd(tab, j, 8);
            const __m128i q = _mm_i32gather_epi32(qtab, j, 4);
            const __m256d nlt = _mm256_cmp_pd(node, e, _CMP_NLT_UQ);
            const __m256d lt = _mm256_cmp_pd(e, node, _CMP_LT_OQ);
            const __m128i nlt32 = _mm256_castsi256_si128(
                _mm256_permutevar8x32_epi32(_mm256_castpd_si256(nlt), narrow_idx));
            const __m128i lt32 = _mm256_castsi256_si128(
                _mm256_permutevar8x32_epi32(_mm256_castpd_si256(lt), narrow_idx));
            const __m128i not_leq = _mm_cmpeq_epi32(q, zero);
            const __m128i left = _mm_or_si128(_mm_and_si128(not_leq, lt32),
                                              _mm_andnot_si128(not_leq, nlt32));
            j = _mm_add_epi32(_mm_add_epi32(j, j), _mm_add_epi32(one, left));
        }
        _mm_storeu_si128(reinterpret_cast<__m128i*>(bucket + 4 * v), j);
    }
}

inline void bipartition_sides(const float* elems, float pivot, int lanes, std::int32_t* side) {
    const __m256 p = _mm256_set1_ps(pivot);
    const __m256i one = _mm256_set1_epi32(1);
    int l = 0;
    for (; l + 8 <= lanes; l += 8) {
        const __m256 e = _mm256_loadu_ps(elems + l);
        const __m256i lt = _mm256_castps_si256(_mm256_cmp_ps(e, p, _CMP_LT_OQ));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(side + l), _mm256_add_epi32(one, lt));
    }
    if (l < lanes) scalar::bipartition_sides(elems + l, pivot, lanes - l, side + l);
}

inline void bipartition_sides(const double* elems, double pivot, int lanes,
                              std::int32_t* side) {
    const __m256d p = _mm256_set1_pd(pivot);
    const __m128i one = _mm_set1_epi32(1);
    const __m256i narrow_idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    int l = 0;
    for (; l + 4 <= lanes; l += 4) {
        const __m256d e = _mm256_loadu_pd(elems + l);
        const __m256d lt = _mm256_cmp_pd(e, p, _CMP_LT_OQ);
        const __m128i lt32 = _mm256_castsi256_si128(
            _mm256_permutevar8x32_epi32(_mm256_castpd_si256(lt), narrow_idx));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(side + l), _mm_add_epi32(one, lt32));
    }
    if (l < lanes) scalar::bipartition_sides(elems + l, pivot, lanes - l, side + l);
}

inline void tripartition_sides(const float* elems, float pivot, int lanes, std::int32_t* side) {
    const __m256 p = _mm256_set1_ps(pivot);
    const __m256i two = _mm256_set1_epi32(2);
    int l = 0;
    for (; l + 8 <= lanes; l += 8) {
        const __m256 e = _mm256_loadu_ps(elems + l);
        const __m256i lt = _mm256_castps_si256(_mm256_cmp_ps(e, p, _CMP_LT_OQ));
        const __m256i eq = _mm256_castps_si256(_mm256_cmp_ps(e, p, _CMP_EQ_OQ));
        const __m256i s = _mm256_add_epi32(two, _mm256_add_epi32(_mm256_add_epi32(lt, lt), eq));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(side + l), s);
    }
    if (l < lanes) scalar::tripartition_sides(elems + l, pivot, lanes - l, side + l);
}

inline void tripartition_sides(const double* elems, double pivot, int lanes,
                               std::int32_t* side) {
    const __m256d p = _mm256_set1_pd(pivot);
    const __m128i two = _mm_set1_epi32(2);
    const __m256i narrow_idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    int l = 0;
    for (; l + 4 <= lanes; l += 4) {
        const __m256d e = _mm256_loadu_pd(elems + l);
        const __m256d lt = _mm256_cmp_pd(e, p, _CMP_LT_OQ);
        const __m256d eq = _mm256_cmp_pd(e, p, _CMP_EQ_OQ);
        const __m128i lt32 = _mm256_castsi256_si128(
            _mm256_permutevar8x32_epi32(_mm256_castpd_si256(lt), narrow_idx));
        const __m128i eq32 = _mm256_castsi256_si128(
            _mm256_permutevar8x32_epi32(_mm256_castpd_si256(eq), narrow_idx));
        const __m128i s = _mm_add_epi32(two, _mm_add_epi32(_mm_add_epi32(lt32, lt32), eq32));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(side + l), s);
    }
    if (l < lanes) scalar::tripartition_sides(elems + l, pivot, lanes - l, side + l);
}

inline std::uint32_t cmp_lt_mask(const float* elems, float pivot, int lanes) {
    const __m256 p = _mm256_set1_ps(pivot);
    std::uint32_t m = 0;
    int l = 0;
    for (; l + 8 <= lanes; l += 8) {
        const auto bits = static_cast<std::uint32_t>(
            _mm256_movemask_ps(_mm256_cmp_ps(_mm256_loadu_ps(elems + l), p, _CMP_LT_OQ)));
        m |= bits << l;
    }
    if (l < lanes) m |= scalar::cmp_lt_mask(elems + l, pivot, lanes - l) << l;
    return m;
}

inline std::uint32_t cmp_lt_mask(const double* elems, double pivot, int lanes) {
    const __m256d p = _mm256_set1_pd(pivot);
    std::uint32_t m = 0;
    int l = 0;
    for (; l + 4 <= lanes; l += 4) {
        const auto bits = static_cast<std::uint32_t>(
            _mm256_movemask_pd(_mm256_cmp_pd(_mm256_loadu_pd(elems + l), p, _CMP_LT_OQ)));
        m |= bits << l;
    }
    if (l < lanes) m |= scalar::cmp_lt_mask(elems + l, pivot, lanes - l) << l;
    return m;
}

inline std::uint32_t cmp_gt_mask(const float* elems, float pivot, int lanes) {
    const __m256 p = _mm256_set1_ps(pivot);
    std::uint32_t m = 0;
    int l = 0;
    for (; l + 8 <= lanes; l += 8) {
        const auto bits = static_cast<std::uint32_t>(
            _mm256_movemask_ps(_mm256_cmp_ps(_mm256_loadu_ps(elems + l), p, _CMP_GT_OQ)));
        m |= bits << l;
    }
    if (l < lanes) m |= scalar::cmp_gt_mask(elems + l, pivot, lanes - l) << l;
    return m;
}

inline std::uint32_t cmp_gt_mask(const double* elems, double pivot, int lanes) {
    const __m256d p = _mm256_set1_pd(pivot);
    std::uint32_t m = 0;
    int l = 0;
    for (; l + 4 <= lanes; l += 4) {
        const auto bits = static_cast<std::uint32_t>(
            _mm256_movemask_pd(_mm256_cmp_pd(_mm256_loadu_pd(elems + l), p, _CMP_GT_OQ)));
        m |= bits << l;
    }
    if (l < lanes) m |= scalar::cmp_gt_mask(elems + l, pivot, lanes - l) << l;
    return m;
}

inline std::uint32_t byte_eq_mask(const std::uint8_t* v, std::uint8_t x, int lanes) {
    if (lanes == 32) {
        const __m256i e = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v));
        const __m256i eq = _mm256_cmpeq_epi8(e, _mm256_set1_epi8(static_cast<char>(x)));
        return static_cast<std::uint32_t>(_mm256_movemask_epi8(eq));
    }
    return scalar::byte_eq_mask(v, x, lanes);
}

inline std::uint32_t byte_gt_mask(const std::uint8_t* v, std::uint8_t x, int lanes) {
    if (lanes == 32) {
        // Unsigned v > x via max_epu8: max(x, v) == x holds iff v <= x.
        const __m256i bx = _mm256_set1_epi8(static_cast<char>(x));
        const __m256i e = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v));
        const __m256i le = _mm256_cmpeq_epi8(_mm256_max_epu8(bx, e), bx);
        return ~static_cast<std::uint32_t>(_mm256_movemask_epi8(le));
    }
    return scalar::byte_gt_mask(v, x, lanes);
}

namespace detail {

/// Permute-index table emulating vcompressps on AVX2 (x86-simd-sort's
/// partitioning trick): entry [m] lists the set-bit positions of the 8-bit
/// mask m in ascending order, so a single permutevar8x32 packs the selected
/// lanes to the vector front.
struct CompressLut8 {
    std::int32_t idx[256][8];
};
constexpr CompressLut8 make_compress_lut8() {
    CompressLut8 t{};
    for (int m = 0; m < 256; ++m) {
        int n = 0;
        for (int b = 0; b < 8; ++b) {
            if ((m >> b) & 1) t.idx[m][n++] = b;
        }
        for (; n < 8; ++n) t.idx[m][n] = 0;
    }
    return t;
}
inline constexpr CompressLut8 kCompressLut8 = make_compress_lut8();

}  // namespace detail

/// Masked compress-store of 4-byte lanes (bit-preserving through integer
/// registers, so float payloads incl. NaN move unquieted).  Full 8-lane
/// chunks take the LUT permute + tail-masked store; the remainder is the
/// scalar loop.  Returns the count written.
inline int compress_store_4(const void* src, std::uint32_t mask, int lanes, void* dst) {
    const auto* in = static_cast<const unsigned char*>(src);
    auto* out = static_cast<unsigned char*>(dst);
    const __m256i lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    int written = 0;
    int l = 0;
    for (; l + 8 <= lanes; l += 8) {
        const std::uint32_t m8 = (mask >> l) & 0xffu;
        const __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + 4u * static_cast<unsigned>(l)));
        const __m256i perm = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(detail::kCompressLut8.idx[m8]));
        const __m256i packed = _mm256_permutevar8x32_epi32(v, perm);
        const int cnt = std::popcount(m8);
        const __m256i keep = _mm256_cmpgt_epi32(_mm256_set1_epi32(cnt), lane_ids);
        _mm256_maskstore_epi32(
            reinterpret_cast<std::int32_t*>(out + 4u * static_cast<unsigned>(written)), keep,
            packed);
        written += cnt;
    }
    for (; l < lanes; ++l) {
        if ((mask >> l) & 1u) {
            std::memcpy(out + 4u * static_cast<unsigned>(written),
                        in + 4u * static_cast<unsigned>(l), 4);
            ++written;
        }
    }
    return written;
}

inline void pack_low_bytes(const std::int32_t* v, int lanes, std::uint8_t* out) {
    if (lanes == 32) {
        const auto* p = reinterpret_cast<const __m256i*>(v);
        const __m256i a = _mm256_loadu_si256(p);
        const __m256i b = _mm256_loadu_si256(p + 1);
        const __m256i c = _mm256_loadu_si256(p + 2);
        const __m256i d = _mm256_loadu_si256(p + 3);
        // packs interleave 128-bit lanes; one cross-lane permute restores
        // element order of the 32 bytes.
        const __m256i w16a = _mm256_packs_epi32(a, b);
        const __m256i w16b = _mm256_packs_epi32(c, d);
        const __m256i w8 = _mm256_packus_epi16(w16a, w16b);
        const __m256i fix = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                            _mm256_permutevar8x32_epi32(w8, fix));
        return;
    }
    scalar::pack_low_bytes(v, lanes, out);
}

/// Bitonic (k, j) step on 128-bit vectors for the strides below one
/// 256-bit vector (j == 4 float / j == 2 double); smaller strides take the
/// scalar loop.  Swap condition is the exact scalar predicate
/// ((a > b) == ascending), so results (incl. -0.0 / NaN placement) match
/// the scalar network bit for bit.
inline void bitonic_step_128(float* a, std::size_t m, std::size_t j, std::size_t k) {
    if (j < 4) {
        scalar::bitonic_step(a, m, j, k);
        return;
    }
    for (std::size_t base = 0; base < m; base += 2 * j) {
        const bool ascending = (base & k) == 0;
        for (std::size_t off = base; off < base + j; off += 4) {
            const __m128 lo = _mm_loadu_ps(a + off);
            const __m128 hi = _mm_loadu_ps(a + off + j);
            const __m128 swp = ascending ? _mm_cmp_ps(lo, hi, _CMP_GT_OQ)
                                         : _mm_cmp_ps(lo, hi, _CMP_NGT_UQ);
            _mm_storeu_ps(a + off, _mm_blendv_ps(lo, hi, swp));
            _mm_storeu_ps(a + off + j, _mm_blendv_ps(hi, lo, swp));
        }
    }
}

inline void bitonic_step_128(double* a, std::size_t m, std::size_t j, std::size_t k) {
    if (j < 2) {
        scalar::bitonic_step(a, m, j, k);
        return;
    }
    for (std::size_t base = 0; base < m; base += 2 * j) {
        const bool ascending = (base & k) == 0;
        for (std::size_t off = base; off < base + j; off += 2) {
            const __m128d lo = _mm_loadu_pd(a + off);
            const __m128d hi = _mm_loadu_pd(a + off + j);
            const __m128d swp = ascending ? _mm_cmp_pd(lo, hi, _CMP_GT_OQ)
                                          : _mm_cmp_pd(lo, hi, _CMP_NGT_UQ);
            _mm_storeu_pd(a + off, _mm_blendv_pd(lo, hi, swp));
            _mm_storeu_pd(a + off + j, _mm_blendv_pd(hi, lo, swp));
        }
    }
}

inline void bitonic_step(float* a, std::size_t m, std::size_t j, std::size_t k) {
    if (j < 8) {
        bitonic_step_128(a, m, j, k);
        return;
    }
    for (std::size_t base = 0; base < m; base += 2 * j) {
        const bool ascending = (base & k) == 0;
        for (std::size_t off = base; off < base + j; off += 8) {
            const __m256 lo = _mm256_loadu_ps(a + off);
            const __m256 hi = _mm256_loadu_ps(a + off + j);
            const __m256 swp = ascending ? _mm256_cmp_ps(lo, hi, _CMP_GT_OQ)
                                         : _mm256_cmp_ps(lo, hi, _CMP_NGT_UQ);
            _mm256_storeu_ps(a + off, _mm256_blendv_ps(lo, hi, swp));
            _mm256_storeu_ps(a + off + j, _mm256_blendv_ps(hi, lo, swp));
        }
    }
}

inline void bitonic_step(double* a, std::size_t m, std::size_t j, std::size_t k) {
    if (j < 4) {
        bitonic_step_128(a, m, j, k);
        return;
    }
    for (std::size_t base = 0; base < m; base += 2 * j) {
        const bool ascending = (base & k) == 0;
        for (std::size_t off = base; off < base + j; off += 4) {
            const __m256d lo = _mm256_loadu_pd(a + off);
            const __m256d hi = _mm256_loadu_pd(a + off + j);
            const __m256d swp = ascending ? _mm256_cmp_pd(lo, hi, _CMP_GT_OQ)
                                          : _mm256_cmp_pd(lo, hi, _CMP_NGT_UQ);
            _mm256_storeu_pd(a + off, _mm256_blendv_pd(lo, hi, swp));
            _mm256_storeu_pd(a + off + j, _mm256_blendv_pd(hi, lo, swp));
        }
    }
}

}  // namespace avx2
#endif  // GPUSEL_SIMD_AVX2

// ===========================================================================
// Dispatch layer: runtime-tier switch in front of the implementations.
// All functions accept any lane count; fast paths engage on full tiles.
// ===========================================================================

/// Element types the vector tiers implement; anything else takes the
/// scalar reference path unconditionally.
template <typename T>
inline constexpr bool kVectorizable = std::is_same_v<T, float> || std::is_same_v<T, double>;

/// Search-tree traversal over one warp tile.  `leq32` is the tree's leq
/// byte array widened to int32 (0 / nonzero) for vector gathers; `bucket`
/// receives the *bucket index* (leaf-local form, == heap index - (2^h - 1)).
template <typename T>
inline void traverse_tree(const T* nodes, const std::int32_t* leq32, std::int32_t height,
                          const T* elems, int lanes, std::int32_t* bucket) {
    if constexpr (kVectorizable<T>) {
#if defined(GPUSEL_SIMD_AVX2)
        if (active_level() >= Level::avx2 && lanes == kTileLanes) {
            avx2::traverse_tree(nodes, leq32, height, elems, bucket);
            return;
        }
#endif
    }
    scalar::traverse_tree(nodes, leq32, height, elems, lanes, bucket);
}

/// side[l] = elems[l] < pivot ? 0 : 1 (quickselect bipartition).
template <typename T>
inline void bipartition_sides(const T* elems, T pivot, int lanes, std::int32_t* side) {
    if constexpr (kVectorizable<T>) {
#if defined(GPUSEL_SIMD_AVX2)
        if (active_level() >= Level::avx2) {
            avx2::bipartition_sides(elems, pivot, lanes, side);
            return;
        }
#endif
    }
    scalar::bipartition_sides(elems, pivot, lanes, side);
}

/// side[l] = 0 (smaller) / 1 (equal) / 2 (larger) vs. the pivot.
template <typename T>
inline void tripartition_sides(const T* elems, T pivot, int lanes, std::int32_t* side) {
    if constexpr (kVectorizable<T>) {
#if defined(GPUSEL_SIMD_AVX2)
        if (active_level() >= Level::avx2) {
            avx2::tripartition_sides(elems, pivot, lanes, side);
            return;
        }
#endif
    }
    scalar::tripartition_sides(elems, pivot, lanes, side);
}

/// Lane mask of elems[l] < pivot (masked compare; bit l set when true).
template <typename T>
inline std::uint32_t cmp_lt_mask(const T* elems, T pivot, int lanes) {
    if constexpr (kVectorizable<T>) {
#if defined(GPUSEL_SIMD_AVX2)
        if (active_level() >= Level::avx2) return avx2::cmp_lt_mask(elems, pivot, lanes);
#endif
    }
    return scalar::cmp_lt_mask(elems, pivot, lanes);
}

/// Lane mask of pivot < elems[l] (NaN lanes compare false, bit clear).
template <typename T>
inline std::uint32_t cmp_gt_mask(const T* elems, T pivot, int lanes) {
    if constexpr (kVectorizable<T>) {
#if defined(GPUSEL_SIMD_AVX2)
        if (active_level() >= Level::avx2) return avx2::cmp_gt_mask(elems, pivot, lanes);
#endif
    }
    return scalar::cmp_gt_mask(elems, pivot, lanes);
}

/// Lane mask of v[l] == x over a byte array (bucket-oracle compare).
inline std::uint32_t byte_eq_mask(const std::uint8_t* v, std::uint8_t x, int lanes) {
#if defined(GPUSEL_SIMD_AVX2)
    if (active_level() >= Level::avx2) return avx2::byte_eq_mask(v, x, lanes);
#endif
    return scalar::byte_eq_mask(v, x, lanes);
}

/// Lane mask of v[l] > x (unsigned byte compare).
inline std::uint32_t byte_gt_mask(const std::uint8_t* v, std::uint8_t x, int lanes) {
#if defined(GPUSEL_SIMD_AVX2)
    if (active_level() >= Level::avx2) return avx2::byte_gt_mask(v, x, lanes);
#endif
    return scalar::byte_gt_mask(v, x, lanes);
}

/// Expand a lane mask into a bool predicate array.
inline void mask_to_pred(std::uint32_t mask, int lanes, bool* pred) {
    for (int l = 0; l < lanes; ++l) pred[l] = ((mask >> l) & 1u) != 0;
}

/// Element types the compress-store engine handles: any trivially
/// copyable 4-byte value moves through the integer permute unit
/// bit-for-bit (float, int32).  8-byte lanes (double, KeyPayload<float,
/// uint32>) take the scalar loop.
template <typename T>
inline constexpr bool kCompressible = std::is_trivially_copyable_v<T> && sizeof(T) == 4;

/// Masked compress-store: packs the lanes of `src` whose mask bit is set
/// into a contiguous run at `dst`, preserving lane order; returns the
/// count written.  Mask bits at positions >= lanes are ignored.  AVX2
/// emulates vcompressps with a lookup-table permute (the x86-simd-sort
/// partition trick).
template <typename T>
inline int compress_store(const T* src, std::uint32_t mask, int lanes, T* dst) {
    if constexpr (kCompressible<T>) {
#if defined(GPUSEL_SIMD_AVX2)
        if (active_level() >= Level::avx2) return avx2::compress_store_4(src, mask, lanes, dst);
#endif
    }
    return scalar::compress_store(src, mask, lanes, dst);
}

/// Reversed compress-store for the right side of a bipartition: selected
/// lanes land at dst_hi[0], dst_hi[-1], ... in lane order (matching the
/// `n - 1 - offset` scatter convention).  Returns the count written.
template <typename T>
inline int compress_store_reverse(const T* src, std::uint32_t mask, int lanes, T* dst_hi) {
    T tmp[kTileLanes];
    const int n = compress_store(src, mask, lanes, tmp);
    for (int i = 0; i < n; ++i) dst_hi[-i] = tmp[i];
    return n;
}

/// out[l] = uint8(v[l]) -- oracle-byte narrowing; values must be in [0, 255].
inline void pack_low_bytes(const std::int32_t* v, int lanes, std::uint8_t* out) {
#if defined(GPUSEL_SIMD_AVX2)
    if (active_level() >= Level::avx2) {
        avx2::pack_low_bytes(v, lanes, out);
        return;
    }
#endif
    scalar::pack_low_bytes(v, lanes, out);
}

/// One (k, j) compare-exchange step of the bitonic network on m (pow2)
/// elements.  Strides of at least one 128-bit vector (4 floats / 2
/// doubles) run vectorized, the widest vector that fits first; smaller
/// strides take the scalar pair loop.
template <typename T>
inline void bitonic_step(T* a, std::size_t m, std::size_t j, std::size_t k) {
    if constexpr (kVectorizable<T>) {
#if defined(GPUSEL_SIMD_AVX2)
        if (active_level() >= Level::avx2) {
            avx2::bitonic_step(a, m, j, k);
            return;
        }
#endif
    }
    scalar::bitonic_step(a, m, j, k);
}

}  // namespace gpusel::simt::simd
