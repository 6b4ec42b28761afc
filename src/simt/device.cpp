#include "simt/device.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

namespace gpusel::simt {

unsigned default_host_workers() noexcept {
    if (const char* env = std::getenv("GPUSEL_WORKERS")) {
        // The whole value must parse: "", "abc" and "3x" fall back to the
        // hardware default like out-of-range values, not to 0 or a prefix.
        const std::string_view v{env};
        unsigned n = 0;
        const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
        if (ec == std::errc{} && end == v.data() + v.size() && n <= 1024) return n;
    }
    const unsigned hc = std::thread::hardware_concurrency();
    return hc > 1 ? hc - 1 : 0;
}

Device::Device(ArchSpec spec, DeviceOptions opts)
    : arch_(std::move(spec)), opts_(opts), pool_(opts.host_workers) {
    mem_pool_.set_stream_clock([this](int stream) { return stream_clock(stream); });
    // Pooled checkouts draw from the same deterministic fault stream as
    // fresh allocations and launches.
    mem_pool_.set_fault_hook([this] { return injector_.should_fail_alloc(); });
    if (const auto env_spec = FaultSpec::from_env()) set_faults(*env_spec);
    if (const SanMode m = mode_from_env("GPUSEL_SAN"); m != SanMode::off) set_sanitizer(m);
    if (const SanMode m = mode_from_env("GPUSEL_STREAMSAN"); m != SanMode::off) {
        set_stream_sanitizer(m);
    }
}

namespace {
/// Replaces the analyzer in `slot` (nullptr for off).  Buffers and pool
/// checkouts keep the analyzer they registered with and unregister from
/// it on release, so one that still tracks a region must outlive them:
/// replacing it would leave them a dangling pointer.
template <typename Analyzer>
void install(std::unique_ptr<Analyzer>& slot, SanMode mode, bool concurrent,
             const char* setter) {
    if (slot != nullptr && slot->tracked_regions() != 0) {
        throw std::logic_error(std::string(setter) + ": the current analyzer still tracks " +
                               std::to_string(slot->tracked_regions()) +
                               " live region(s); set it before allocating");
    }
    slot = mode == SanMode::off ? nullptr : std::make_unique<Analyzer>(mode, concurrent);
}
}  // namespace

void Device::set_sanitizer(SanMode mode) {
    install(san_, mode, /*concurrent=*/opts_.host_workers != 0, "set_sanitizer");
    mem_pool_.set_sanitizer(san_.get());
}

void Device::set_stream_sanitizer(SanMode mode) {
    install(ssan_, mode, /*concurrent=*/opts_.host_workers != 0, "set_stream_sanitizer");
    mem_pool_.set_stream_sanitizer(ssan_.get());
}

void Device::maybe_fail_alloc(std::size_t bytes) {
    if (injector_.should_fail_alloc()) throw AllocFault(bytes);
}

KernelProfile Device::launch(std::string name, const LaunchConfig& cfg, const KernelFn& fn,
                             const KernelFn& epilogue) {
    if (cfg.grid_dim <= 0) throw std::invalid_argument("grid_dim must be positive");
    if (static_cast<std::size_t>(cfg.stream) >= stream_clock_.size()) {
        throw std::invalid_argument("unknown stream");
    }
    // Fault check before any side effect: a failed launch never ran, never
    // advanced a clock and never counted -- like a cudaLaunchKernel error.
    if (injector_.enabled() && injector_.should_fail_launch()) throw LaunchFault(name);
    // StreamSan launch node: ticks the stream's vector clock (and in strict
    // mode surfaces any hazard deferred from a noexcept hook).  After the
    // fault check: a faulted launch never happened, so it is no HB node.
    if (ssan_) ssan_->on_launch_begin(cfg.stream, name);

    KernelProfile profile;
    profile.name = std::move(name);
    profile.grid_dim = cfg.grid_dim;
    profile.block_dim = cfg.block_dim;
    profile.origin = cfg.origin;
    profile.unroll = cfg.unroll;
    profile.stream = cfg.stream;

    const auto blocks = static_cast<std::size_t>(cfg.grid_dim);
    std::vector<KernelCounters> per_block(blocks);
    std::vector<std::size_t> shared_used(blocks, 0);
    // SimTSan launch bracket: a new race-detection epoch before any block
    // runs; a strict-mode violation inside a block propagates out of
    // parallel_for as SanError, aborting the launch like a device trap.
    if (san_) san_->begin_launch(profile.name);
    const bool has_epilogue = static_cast<bool>(epilogue);
    pool_.parallel_for(blocks, [&](std::size_t b) {
        BlockCtx blk(arch_, static_cast<int>(b), cfg.grid_dim, cfg.block_dim,
                     arch_.shared_mem_per_block, san_.get(), ssan_.get());
        fn(blk);
        // The block's epilogue ticket: one global atomic on a counter the
        // simulator owns (no device buffer, nothing for the analyzers).
        if (has_epilogue) ++blk.counters().global_atomic_ops;
        per_block[b] = blk.counters();
        shared_used[b] = blk.shared_bytes_used();
    });
    for (std::size_t b = 0; b < blocks; ++b) {
        profile.counters += per_block[b];
        if (shared_used[b] > profile.shared_bytes) profile.shared_bytes = shared_used[b];
    }
    if (has_epilogue) {
        // parallel_for has joined: every block has taken its ticket, so this
        // is the last ticket's holder.  Run inline on the calling thread,
        // which keeps it exactly once and deterministic for any worker
        // count; inline execution retires blocks in order, so the last
        // ticket goes to block grid_dim - 1.
        if (san_) san_->begin_epilogue();
        BlockCtx blk(arch_, cfg.grid_dim - 1, cfg.grid_dim, kWarpSize,
                     arch_.shared_mem_per_block, san_.get(), ssan_.get());
        epilogue(blk);
        profile.epilogue = blk.counters();
        profile.shared_bytes = std::max(profile.shared_bytes, blk.shared_bytes_used());
    }

    profile.sim_ns = simulate_time(arch_, profile).total_ns;
    // In-order within the launch's stream; streams overlap.  An injected
    // stream stall delays subsequent work on this stream (interference
    // from unrelated tenants) without changing the launch's own profile.
    const auto stream = static_cast<std::size_t>(cfg.stream);
    profile.start_ns = stream_clock_[stream];
    stream_clock_[stream] += profile.sim_ns;
    if (injector_.enabled()) stream_clock_[stream] += injector_.stall_penalty_ns();
    clock_ns_ = *std::max_element(stream_clock_.begin(), stream_clock_.end());
    totals_ += profile.counters;
    totals_ += profile.epilogue;
    ++launch_count_;
    if (opts_.record_profiles) profiles_.push_back(profile);
    // Canary sweep after the launch's bookkeeping: the launch *did* run, so
    // its counters and clock stand even when the sweep throws (strict mode).
    if (san_) san_->end_launch();
    // StreamSan hazard analysis over the launch's folded read/write sets;
    // same placement contract as the canary sweep (may throw in strict).
    if (ssan_) {
        ssan_->on_launch_end(cfg.stream, stream_clock_[stream]);
        robustness_.streamsan_hazards = ssan_->total_hazards();
    }
    return profile;
}

int Device::create_stream() {
    // A new stream cannot run work before it exists: it starts at the
    // current device completion time (causality), and overlaps with
    // everything launched afterwards.
    stream_clock_.push_back(clock_ns_);
    const int s = static_cast<int>(stream_clock_.size() - 1);
    // Matching HB edge: the new stream is ordered after everything enqueued
    // so far, exactly as its clock starting at clock_ns_ implies.
    if (ssan_) ssan_->on_stream_acquired(s);
    return s;
}

int Device::lease_stream() {
    if (!stream_free_.empty()) {
        const int s = stream_free_.back();
        stream_free_.pop_back();
        // A re-leased stream behaves like a newly created one: its first
        // launch starts no earlier than the device completion time at the
        // moment of the lease.
        stream_clock_[static_cast<std::size_t>(s)] = clock_ns_;
        if (ssan_) ssan_->on_stream_acquired(s);
        return s;
    }
    return create_stream();
}

void Device::release_stream(int stream) {
    const auto s = static_cast<std::size_t>(stream);
    if (stream <= 0 || s >= stream_clock_.size()) {
        throw std::invalid_argument("release_stream: not a leasable stream");
    }
    stream_free_.push_back(stream);
}

double Device::stream_clock(int stream) const {
    const auto s = static_cast<std::size_t>(stream);
    if (s >= stream_clock_.size()) throw std::invalid_argument("unknown stream");
    return stream_clock_[s];
}

void Device::wait_event(int stream, double event_ns) {
    const auto s = static_cast<std::size_t>(stream);
    if (s >= stream_clock_.size()) throw std::invalid_argument("unknown stream");
    // HB edge: joins the recorded event's snapshot into the waiting
    // stream's clock.  A wait on a timestamp no record_event() produced is
    // itself a hazard (wait_unrecorded / hb_cycle) and may throw in strict.
    if (ssan_) {
        ssan_->on_event_wait(stream, event_ns, clock_ns_);
        robustness_.streamsan_hazards = ssan_->total_hazards();
    }
    stream_clock_[s] = std::max(stream_clock_[s], event_ns);
}

void Device::advance_stream(int stream, double ns) {
    const auto s = static_cast<std::size_t>(stream);
    if (s >= stream_clock_.size()) throw std::invalid_argument("unknown stream");
    stream_clock_[s] = std::max(stream_clock_[s], ns);
    // The device completes no earlier than its latest stream: a later join
    // must not move this stream back, nor a new stream start before it.
    clock_ns_ = std::max(clock_ns_, stream_clock_[s]);
}

void Device::synchronize() {
    // Host-side join with every stream: a full HB barrier.
    if (ssan_) ssan_->on_synchronize();
    for (auto& c : stream_clock_) c = clock_ns_;
}

KernelCounters Device::counter_totals() const { return totals_; }

}  // namespace gpusel::simt
