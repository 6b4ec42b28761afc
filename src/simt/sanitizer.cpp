#include "simt/sanitizer.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace gpusel::simt {

namespace {

bool all_bytes(const void* p, std::size_t n, std::byte b) noexcept {
    const auto* s = static_cast<const std::byte*>(p);
    std::uint64_t pattern;
    std::memset(&pattern, static_cast<int>(b), sizeof(pattern));
    while (n >= 8) {
        std::uint64_t w;
        std::memcpy(&w, s, 8);
        if (w != pattern) return false;
        s += 8;
        n -= 8;
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (s[i] != b) return false;
    }
    return true;
}

/// Offset of the first non-`b` byte in [p, p+n), or n if none.
std::size_t first_mismatch(const void* p, std::size_t n, std::byte b) noexcept {
    const auto* s = static_cast<const std::byte*>(p);
    for (std::size_t i = 0; i < n; ++i) {
        if (s[i] != b) return i;
    }
    return n;
}

}  // namespace

std::string_view to_string(ViolationKind kind) noexcept {
    switch (kind) {
        case ViolationKind::global_race: return "global_race";
        case ViolationKind::shared_epoch: return "shared_epoch";
        case ViolationKind::global_oob: return "global_oob";
        case ViolationKind::shared_oob: return "shared_oob";
        case ViolationKind::uninit_read: return "uninit_read";
        case ViolationKind::canary: return "canary";
    }
    return "unknown";
}

std::string SanViolation::message() const {
    std::string m = "SimTSan: ";
    m += to_string(kind);
    if (!kernel.empty()) {
        m += " in kernel '";
        m += kernel;
        m += "'";
    }
    if (!primitive.empty()) {
        m += ", primitive ";
        m += primitive;
    }
    m += ", byte offset " + std::to_string(offset);
    if (block >= 0) m += ", block " + std::to_string(block);
    if (!detail.empty()) {
        m += ": ";
        m += detail;
    }
    return m;
}

void Sanitizer::register_region(const void* base, std::size_t bytes, bool mark_uninit,
                                const void* canary_lo, std::size_t canary_lo_bytes,
                                const void* canary_hi, std::size_t canary_hi_bytes) {
    if (base == nullptr || bytes == 0) return;
    const std::size_t granules = (bytes + kSanGranule - 1) / kSanGranule;
    Region r;
    r.writers.assign(granules, 0);
    r.readers.assign(granules, 0);
    r.track_uninit = mark_uninit;
    if (mark_uninit) r.init_bits.assign((granules + 63) / 64, 0);
    r.canary_lo = reinterpret_cast<std::uintptr_t>(canary_lo);
    r.canary_lo_bytes = canary_lo_bytes;
    r.canary_hi = reinterpret_cast<std::uintptr_t>(canary_hi);
    r.canary_hi_bytes = canary_hi_bytes;
    regions_.insert(base, bytes, std::move(r));
}

void Sanitizer::unregister_region(const void* base) noexcept {
    const Region* r = regions_.at(base);
    if (r == nullptr) return;
    // Destructor context: canary findings are recorded, never thrown.
    try {
        sweep_canaries(*r, /*allow_throw=*/false);
    } catch (...) {  // only allocation can throw on the record-only path
    }
    regions_.erase(base);
}

void Sanitizer::begin_launch(std::string_view kernel) {
    next_epoch();
    kernel_.assign(kernel);
}

void Sanitizer::next_epoch() {
    ++epoch_;
    if ((epoch_ & 0xffffu) == 0) {
        // The 16-bit epoch field of the packed shadow cells wrapped: stale
        // cells from 65536 epochs ago would alias the new epoch, so wipe
        // every shadow (O(shadow bytes) once per 65536 epochs) and skip
        // field value 0, which is reserved for "never accessed".
        for (auto& [base, r] : regions_) {
            std::fill(r.writers.begin(), r.writers.end(), 0u);
            std::fill(r.readers.begin(), r.readers.end(), 0u);
        }
        ++epoch_;
    }
}

void Sanitizer::end_launch() {
    // Quick sweep: only the first kQuickSweepBytes of each band, so a launch
    // pays O(regions), not O(total canary bytes).  A contiguous overrun
    // starts at the band's first byte, so this catches the common smash the
    // launch after it happens; anything deeper is caught by the full sweep
    // at unregistration.
    for (auto& [base, r] : regions_) sweep_canaries(r, /*allow_throw=*/true, /*quick=*/true);
    kernel_.clear();
}

void Sanitizer::access_atomic(Region& r, std::size_t g_first, std::size_t g_last, int block,
                              const char* primitive, MemAccess a, std::uint32_t self) {
    const bool is_atomic = a == MemAccess::atomic;
    for (std::size_t g = g_first; g <= g_last; ++g) {
        const std::uint32_t w = cell_load(r.writers[g]);
        // Same launch epoch AND different block; the atomic-vs-atomic
        // exemption resolves inside the rare taken branch.
        if ((w >> 16) == (self >> 16) && ((w ^ self) & kCellBlockMask) != 0) [[unlikely]] {
            if (!((w & 1u) != 0 && is_atomic)) {
                report_conflict(g * kSanGranule, block, primitive, a, w, /*other_is_writer=*/true);
            }
        }
        if (a == MemAccess::read) {
            cell_store(r.readers[g], self);
            if (r.track_uninit) {
                const std::uint64_t word = std::atomic_ref<std::uint64_t>(r.init_bits[g / 64])
                                               .load(std::memory_order_relaxed);
                if ((word & (std::uint64_t{1} << (g % 64))) == 0) [[unlikely]] {
                    uninit_read_slow(r, g, block, primitive);
                }
            }
        } else {
            // Writes and atomics also conflict with a plain read by
            // another block.
            const std::uint32_t rd = cell_load(r.readers[g]);
            if ((rd >> 16) == (self >> 16) && ((rd ^ self) & kCellBlockMask) != 0) [[unlikely]] {
                report_conflict(g * kSanGranule, block, primitive, a, rd,
                                /*other_is_writer=*/false);
            }
            cell_store(r.writers[g], self);
            if (r.track_uninit) {
                std::uint64_t& word = r.init_bits[g / 64];
                const std::uint64_t bit = std::uint64_t{1} << (g % 64);
                // fetch_or only on the granule's first write; afterwards
                // the preceding load keeps this LOCK-free in practice.
                if ((std::atomic_ref<std::uint64_t>(word).load(std::memory_order_relaxed) & bit) ==
                    0) {
                    std::atomic_ref<std::uint64_t>(word).fetch_or(bit, std::memory_order_relaxed);
                }
            }
        }
    }
}

void Sanitizer::conflict_walk(Region& r, std::size_t g_first, std::size_t g_last, int block,
                              const char* primitive, MemAccess a, std::uint32_t self) {
    const bool is_atomic = a == MemAccess::atomic;
    for (std::size_t g = g_first; g <= g_last; ++g) {
        const std::uint32_t w = r.writers[g];
        if ((w >> 16) == (self >> 16) && ((w ^ self) & kCellBlockMask) != 0 &&
            !((w & 1u) != 0 && is_atomic)) {
            report_conflict(g * kSanGranule, block, primitive, a, w, /*other_is_writer=*/true);
        }
        if (a != MemAccess::read) {
            const std::uint32_t rd = r.readers[g];
            if ((rd >> 16) == (self >> 16) && ((rd ^ self) & kCellBlockMask) != 0) {
                report_conflict(g * kSanGranule, block, primitive, a, rd,
                                /*other_is_writer=*/false);
            }
        }
    }
}

void Sanitizer::report_conflict(std::size_t offset, int block, const char* primitive,
                                MemAccess a, std::uint32_t other, bool other_is_writer) {
    const int o_block = static_cast<int>((other >> 1) & 0x7fffu) - 1;
    const bool o_atomic = (other & 1u) != 0;
    const bool is_atomic = a == MemAccess::atomic;
    SanViolation v;
    v.kind = ViolationKind::global_race;
    v.kernel = kernel_;
    v.primitive = primitive;
    v.offset = offset;
    v.block = block;
    if (other_is_writer) {
        // Same launch, different block, and at least one side plain.
        v.detail = std::string(a == MemAccess::read ? "read" : is_atomic ? "atomic" : "write") +
                   " conflicts with " + (o_atomic ? "atomic" : "write") + " by block " +
                   std::to_string(o_block);
    } else {
        v.detail = std::string(is_atomic ? "atomic" : "write") +
                   " conflicts with read by block " + std::to_string(o_block);
    }
    report(std::move(v));
}

void Sanitizer::uninit_read_slow(Region& r, std::size_t g, int block, const char* primitive) {
    // Hybrid check: the shadow cannot see host-side staging writes, so only
    // report when the bytes still carry the pool's poison fill.
    const auto* gp = reinterpret_cast<const std::byte*>(r.base) + g * kSanGranule;
    const std::size_t gb = std::min(kSanGranule, r.bytes - g * kSanGranule);
    if (all_bytes(gp, gb, kPoisonByte)) {
        SanViolation v;
        v.kind = ViolationKind::uninit_read;
        v.kernel = kernel_;
        v.primitive = primitive;
        v.offset = g * kSanGranule;
        v.block = block;
        v.detail = "read of a poisoned pool word before any instrumented store";
        report(std::move(v));
    } else {
        // Observed real (host-staged) data: latch the init bit so re-reads
        // skip the poison compare.  A word can only go back to poison
        // through a fresh pool checkout, which reallocates the shadow.
        std::atomic_ref<std::uint64_t>(r.init_bits[g / 64])
            .fetch_or(std::uint64_t{1} << (g % 64), std::memory_order_relaxed);
    }
}

void Sanitizer::uninit_word_slow(Region& r, std::size_t w, std::uint64_t missing, int block,
                                 const char* primitive) {
    // Serial path only (no shadow concurrency): triage a whole bitmap
    // word's unset granules at once.  A granule counts as still-poisoned
    // only when every byte carries the pool fill, so a single u32 compare
    // settles each full granule; anything that is not pure poison is real
    // host-staged data and its bit latches with one plain OR at the end.
    static_assert(kSanGranule == sizeof(std::uint32_t));
    constexpr std::uint32_t kPoisonWord = 0x01010101u * static_cast<std::uint32_t>(kPoisonByte);
    const auto* base = reinterpret_cast<const std::byte*>(r.base);
    std::uint64_t latch = 0;
    for (std::uint64_t m = missing; m != 0; m &= m - 1) {
        const std::uint64_t bit = m & (~m + 1);
        const auto g = w * 64 + static_cast<std::size_t>(std::countr_zero(m));
        const std::size_t lo = g * kSanGranule;
        if (lo + kSanGranule <= r.bytes) [[likely]] {
            std::uint32_t v;
            std::memcpy(&v, base + lo, sizeof v);
            if (v != kPoisonWord) {
                latch |= bit;
                continue;
            }
        }
        // Fully-poisoned granule, or the partial tail granule: the precise
        // per-granule path reports / latches it.
        uninit_read_slow(r, g, block, primitive);
    }
    r.init_bits[w] |= latch;
}

void Sanitizer::oob(ViolationKind kind, const char* primitive, std::size_t index,
                    std::size_t size, int block) {
    SanViolation v;
    v.kind = kind;
    v.kernel = kernel_;
    v.primitive = primitive;
    v.offset = index;
    v.block = block;
    v.detail = "index " + std::to_string(index) + " out of bounds for size " +
               std::to_string(size);
    log_.record(v);
    // OOB is fatal in every mode: continuing would corrupt host memory.
    throw SanError(std::move(v));
}

void Sanitizer::report(SanViolation v) {
    log_.record(v);
    if (mode_ == SanMode::strict) throw SanError(std::move(v));
}

void Sanitizer::sweep_canaries(const Region& r, bool allow_throw, bool quick) {
    const auto check = [&](std::uintptr_t base, std::size_t bytes, const char* which) {
        if (base == 0 || bytes == 0) return;
        if (quick) bytes = std::min(bytes, kQuickSweepBytes);
        const auto* p = reinterpret_cast<const std::byte*>(base);
        if (all_bytes(p, bytes, kCanaryByte)) return;
        SanViolation v;
        v.kind = ViolationKind::canary;
        v.kernel = kernel_;
        v.primitive = "canary sweep";
        v.offset = first_mismatch(p, bytes, kCanaryByte);
        v.detail = std::string(which) +
                   " guard band clobbered (plain uncounted access past the user region?)";
        if (allow_throw) {
            report(std::move(v));  // one report per band localizes the smash
        } else {
            log_.record(v);
        }
    };
    check(r.canary_lo, r.canary_lo_bytes, "leading");
    check(r.canary_hi, r.canary_hi_bytes, "trailing");
}

}  // namespace gpusel::simt
