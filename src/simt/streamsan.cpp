#include "simt/streamsan.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace gpusel::simt {

namespace {
/// Empty-range sentinel for the per-launch fold scratch (lo > hi == none).
constexpr std::size_t kNoLo = std::numeric_limits<std::size_t>::max();
}  // namespace

std::string_view to_string(HazardKind kind) noexcept {
    switch (kind) {
        case HazardKind::write_write_race: return "write_write_race";
        case HazardKind::read_write_race: return "read_write_race";
        case HazardKind::pool_reuse: return "pool_reuse";
        case HazardKind::release_in_flight: return "release_in_flight";
        case HazardKind::wait_unrecorded: return "wait_unrecorded";
        case HazardKind::hb_cycle: return "hb_cycle";
    }
    return "unknown";
}

std::string StreamHazard::message() const {
    std::string msg = "StreamSan: ";
    msg += to_string(kind);
    if (!kernel.empty()) {
        msg += " in '";
        msg += kernel;
        msg += "'";
    }
    msg += " on stream " + std::to_string(stream);
    if (other_stream >= 0) msg += " vs stream " + std::to_string(other_stream);
    if (hi > lo) {
        msg += " over bytes [" + std::to_string(lo) + ", " + std::to_string(hi) + ")";
    }
    if (!detail.empty()) {
        msg += ": ";
        msg += detail;
    }
    return msg;
}

StreamSan::StreamSan(SanMode mode, bool concurrent)
    : mode_(mode), concurrent_(concurrent) {
    // Timestamp 0.0 is the timeline origin: waiting on it (the default
    // event value of never-forked fans) is always satisfied and carries no
    // ordering, exactly like a zero-initialized vector clock.
    events_.emplace(0.0, std::vector<std::uint64_t>{});
}

void StreamSan::register_region(const void* base, std::size_t bytes) {
    if (base == nullptr || bytes == 0) return;
    // A fresh Region: empty history, and seq 0 is stale, so the first
    // touch of the next launch resets the fold.
    regions_.insert(base, bytes);
}

void StreamSan::unregister_region(const void* base) noexcept {
    if (base == nullptr) return;
    Region* r = regions_.at(base);
    if (r == nullptr) return;
    // A region may disappear mid-launch only through a destructor on the
    // host thread; drop it from the pending fold list too.
    if (in_launch_) {
        const auto pos = std::find(accessed_.begin(), accessed_.end(), r);
        if (pos != accessed_.end()) accessed_.erase(pos);
    }
    regions_.erase(base);
}

void StreamSan::ensure_stream(int stream) {
    const auto need = static_cast<std::size_t>(stream) + 1;
    if (vc_.size() < need) vc_.resize(need);
    for (auto& clock : vc_) {
        if (clock.size() < need) clock.resize(need, 0);
    }
}

void StreamSan::join(std::vector<std::uint64_t>& into, const std::vector<std::uint64_t>& from) {
    if (into.size() < from.size()) into.resize(from.size(), 0);
    for (std::size_t t = 0; t < from.size(); ++t) into[t] = std::max(into[t], from[t]);
}

void StreamSan::on_stream_acquired(int stream) {
    if (stream < 0) return;
    ensure_stream(stream);
    // Causality rule of create_stream()/lease_stream(): the stream's first
    // work starts at the device completion time, after everything enqueued
    // so far -- join every clock into the new stream's.
    std::vector<std::uint64_t>& mine = vc_[static_cast<std::size_t>(stream)];
    for (const std::vector<std::uint64_t>& other : vc_) join(mine, other);
}

void StreamSan::on_launch_begin(int stream, std::string_view kernel) {
    throw_pending();
    if (stream < 0) return;
    ensure_stream(stream);
    const auto s = static_cast<std::size_t>(stream);
    ++vc_[s][s];
    ++launch_seq_;
    cur_stream_ = stream;
    cur_kernel_.assign(kernel);
    accessed_.clear();
    in_launch_ = true;
}

void StreamSan::first_touch_slow(Region* r) {
    // Serial mode needs no lock; concurrent block workers race on the
    // first touch of a region, so re-check under the mutex and publish
    // `seq` last (release) so fold loops only run over reset scratch.
    if (!concurrent_) {
        r->seq = launch_seq_;
        r->r_lo = kNoLo;
        r->r_hi = 0;
        r->w_lo = kNoLo;
        r->w_hi = 0;
        accessed_.push_back(r);
        return;
    }
    std::lock_guard<std::mutex> lock(touch_mu_);
    if (std::atomic_ref<std::uint64_t>(r->seq).load(std::memory_order_relaxed) == launch_seq_) {
        return;
    }
    std::atomic_ref<std::size_t>(r->r_lo).store(kNoLo, std::memory_order_relaxed);
    std::atomic_ref<std::size_t>(r->r_hi).store(0, std::memory_order_relaxed);
    std::atomic_ref<std::size_t>(r->w_lo).store(kNoLo, std::memory_order_relaxed);
    std::atomic_ref<std::size_t>(r->w_hi).store(0, std::memory_order_relaxed);
    accessed_.push_back(r);
    std::atomic_ref<std::uint64_t>(r->seq).store(launch_seq_, std::memory_order_release);
}

void StreamSan::note_concurrent(Region* r, std::size_t lo, std::size_t hi, bool write) {
    // Block workers on several threads fold into the same scratch: CAS
    // min/max with relaxed ordering (the launch-end analysis happens after
    // the scheduler's own join, which supplies the synchronization).
    if (std::atomic_ref<std::uint64_t>(r->seq).load(std::memory_order_acquire) != launch_seq_) {
        first_touch_slow(r);
    }
    auto fold_min = [](std::size_t& slot, std::size_t v) {
        std::atomic_ref<std::size_t> a(slot);
        std::size_t cur = a.load(std::memory_order_relaxed);
        while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
        }
    };
    auto fold_max = [](std::size_t& slot, std::size_t v) {
        std::atomic_ref<std::size_t> a(slot);
        std::size_t cur = a.load(std::memory_order_relaxed);
        while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
        }
    };
    if (write) {
        fold_min(r->w_lo, lo);
        fold_max(r->w_hi, hi);
    } else {
        fold_min(r->r_lo, lo);
        fold_max(r->r_hi, hi);
    }
}

void StreamSan::on_launch_end(int stream, double end_ns) {
    if (!in_launch_) return;
    in_launch_ = false;
    if (stream < 0 || static_cast<std::size_t>(stream) >= vc_.size()) return;
    const auto s = static_cast<std::size_t>(stream);
    const std::uint64_t clk = vc_[s][s];

    StreamHazard first;
    bool have_first = false;
    // Reports earlier epoch `e` if it overlaps this launch's [lo, hi) and
    // no edge orders it before the launch.
    auto conflict = [&](const Epoch& e, std::size_t lo, std::size_t hi, HazardKind kind,
                        const char* before, const char* after) {
        if (!unordered(e, stream) || hi <= e.lo || e.hi <= lo) return;
        StreamHazard h{kind, cur_kernel_, stream, e.stream, std::max(lo, e.lo),
                       std::min(hi, e.hi), end_ns, before + e.kernel + after};
        if (!have_first) {
            first = h;
            have_first = true;
        }
        report(std::move(h), /*allow_throw=*/false);
    };

    for (Region* r : accessed_) {
        const bool wrote = r->w_lo < r->w_hi;
        const bool read = r->r_lo < r->r_hi;
        if (wrote) {
            conflict(r->last_write, r->w_lo, r->w_hi, HazardKind::write_write_race,
                     "unordered cross-stream writes (earlier write by '",
                     "'); no event edge orders the two launches");
            for (const Epoch& rd : r->reads) {
                conflict(rd, r->w_lo, r->w_hi, HazardKind::read_write_race,
                         "write overlaps an unordered earlier read by '", "' on another stream");
            }
        }
        if (read) {
            conflict(r->last_write, r->r_lo, r->r_hi, HazardKind::read_write_race,
                     "read overlaps an unordered earlier write by '", "' on another stream");
        }
        // Fold this launch into the history: replace, never union (a
        // union could pair a stale range with a newer clock and report an
        // ordered access as racy).
        if (wrote) r->last_write = Epoch{stream, clk, r->w_lo, r->w_hi, cur_kernel_};
        if (read) {
            Epoch* mine = nullptr;
            for (Epoch& rd : r->reads) {
                if (rd.stream == stream) mine = &rd;
            }
            if (mine == nullptr) {
                r->reads.push_back(Epoch{});
                mine = &r->reads.back();
            }
            *mine = Epoch{stream, clk, r->r_lo, r->r_hi, cur_kernel_};
        }
        r->seq = 0;  // scratch is consumed
    }
    accessed_.clear();
    if (have_first && mode_ == SanMode::strict) throw_hazard(std::move(first));
}

void StreamSan::on_event_record(int stream, double event_ns) {
    if (stream < 0) return;
    ensure_stream(stream);
    join(events_[event_ns], vc_[static_cast<std::size_t>(stream)]);
}

void StreamSan::on_event_wait(int stream, double event_ns, double completion_ns) {
    if (stream < 0) return;
    ensure_stream(stream);
    const auto it = events_.find(event_ns);
    if (it == events_.end()) {
        const bool future = event_ns > completion_ns;
        report({future ? HazardKind::hb_cycle : HazardKind::wait_unrecorded, cur_kernel_, stream,
                -1, 0, 0, event_ns,
                future ? "wait on timestamp " + std::to_string(event_ns) +
                             " beyond the device completion time " +
                             std::to_string(completion_ns) +
                             ": only unenqueued work could record it (cyclic fork/join)"
                       : "wait on timestamp " + std::to_string(event_ns) +
                             " that no record_event() produced"},
               /*allow_throw=*/true);
        return;
    }
    join(vc_[static_cast<std::size_t>(stream)], it->second);
}

void StreamSan::on_synchronize() {
    std::vector<std::uint64_t> all(vc_.size(), 0);
    for (const std::vector<std::uint64_t>& clock : vc_) join(all, clock);
    for (std::vector<std::uint64_t>& clock : vc_) clock = all;
}

void StreamSan::reset_timeline() noexcept {
    try {
        events_.clear();
        events_.emplace(0.0, std::vector<std::uint64_t>{});
    } catch (...) {
        // allocation failure leaves the seed entry absent; waits on 0.0
        // would then report, which is still a safe (loud) failure mode.
    }
}

void StreamSan::on_pool_release(const void* base, int stream) noexcept {
    if (base == nullptr) return;
    Region* released = regions_.at(base);
    if (released == nullptr) return;
    try {
        if (stream >= 0) {
            ensure_stream(stream);
            const Region& r = *released;
            // Every recorded access from another stream must already be
            // ordered before this release, or the block returns to the
            // free list while that stream may still be touching it.
            const Epoch* culprit = nullptr;
            if (unordered(r.last_write, stream)) culprit = &r.last_write;
            for (const Epoch& rd : r.reads) {
                if (culprit == nullptr && unordered(rd, stream)) culprit = &rd;
            }
            if (culprit != nullptr) {
                report({HazardKind::release_in_flight, culprit->kernel, stream, culprit->stream,
                        culprit->lo, culprit->hi, 0.0,
                        "pooled block released on stream " + std::to_string(stream) +
                            " while an access from stream " + std::to_string(culprit->stream) +
                            " is not ordered before the release"},
                       /*allow_throw=*/false);
            }
            tombstones_[reinterpret_cast<std::uintptr_t>(base)] =
                vc_[static_cast<std::size_t>(stream)];
        }
    } catch (...) {
        // record-only path: allocation failure drops the tombstone, which
        // can only make a later reuse *more* suspicious, never less.
    }
    unregister_region(base);
}

void StreamSan::on_pool_reuse(const void* base, int acq_stream, int prev_stream, bool gated) {
    if (base == nullptr || acq_stream < 0) return;
    ensure_stream(acq_stream);
    const auto addr = reinterpret_cast<std::uintptr_t>(base);
    const auto it = tombstones_.find(addr);
    if (acq_stream == prev_stream || gated) {
        // Stream order / the stream-ordered allocator's internal event:
        // the previous user's timeline joins into the acquiring stream.
        if (it != tombstones_.end()) {
            join(vc_[static_cast<std::size_t>(acq_stream)], it->second);
            tombstones_.erase(it);
        }
        return;
    }
    if (it != tombstones_.end()) tombstones_.erase(it);
    report({HazardKind::pool_reuse, std::string(), acq_stream, prev_stream, 0, 0, 0.0,
            "pooled block last released on stream " + std::to_string(prev_stream) +
                " re-issued to stream " + std::to_string(acq_stream) +
                " with no ordering between them (un-gated cross-stream reuse)"},
           /*allow_throw=*/true);
}

void StreamSan::forget(const void* base) noexcept {
    if (base == nullptr) return;
    tombstones_.erase(reinterpret_cast<std::uintptr_t>(base));
}

void StreamSan::report(StreamHazard h, bool allow_throw) {
    log_.record(h);
    if (mode_ == SanMode::collect && trace_instants_.size() < 4096) {
        trace_instants_.push_back(
            TraceInstant{h.sim_ns, kStreamSanTrack, std::string(to_string(h.kind)), h.message()});
    }
    if (mode_ == SanMode::strict) {
        if (allow_throw) throw_hazard(std::move(h));
        if (!has_pending_) {
            pending_ = std::move(h);
            has_pending_ = true;
        }
    }
}

void StreamSan::throw_hazard(StreamHazard h) { throw StreamSanError(std::move(h)); }

void StreamSan::throw_pending() {
    if (!has_pending_) return;
    has_pending_ = false;
    throw_hazard(std::move(pending_));
}

void StreamSan::clear() {
    log_.clear();
    trace_instants_.clear();
    checks_.store(0, std::memory_order_relaxed);
    has_pending_ = false;
}

}  // namespace gpusel::simt
