#pragma once
// The simulated GPU device: kernel launches, the simulated clock, memory
// allocation and profiles.
//
// A Device executes kernels (callables over BlockCtx) block-by-block,
// merges the per-block event counters into a KernelProfile, asks the timing
// model for a simulated duration, and advances the simulated clock.  CUDA
// Dynamic Parallelism (Sec. IV-E of the paper) is modeled by launch latency
// alone: a launch with LaunchOrigin::device is charged the (cheaper)
// device-launch latency instead of a host round trip, while the host code
// that issues it plays the device-side recursion controller.  There is no
// separate control queue.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "simt/arch.hpp"
#include "simt/block.hpp"
#include "simt/counters.hpp"
#include "simt/fault.hpp"
#include "simt/memory.hpp"
#include "simt/pool.hpp"
#include "simt/sanitizer.hpp"
#include "simt/streamsan.hpp"
#include "simt/thread_pool.hpp"
#include "simt/timing.hpp"

namespace gpusel::simt {

/// Launch configuration (the <<<grid, block, shared, stream>>> tuple plus
/// simulator-specific knobs).
struct LaunchConfig {
    int grid_dim = 1;
    int block_dim = 256;
    LaunchOrigin origin = LaunchOrigin::host;
    /// Declared unroll depth, forwarded to the timing model (Sec. IV-H d).
    int unroll = 1;
    /// Stream to enqueue on (0 = default stream).  Launches on one stream
    /// serialize; launches on different streams may overlap in simulated
    /// time (see Device::elapsed_ns).
    int stream = 0;
};

struct DeviceOptions {
    /// Host worker threads used to execute blocks in parallel; 0 = inline
    /// (deterministic, the default for tests and single-core hosts).
    unsigned host_workers = 0;
    /// Keep the per-operation trace logs: a full KernelProfile per launch
    /// (needed for breakdown figures), the planner log and, in a
    /// DeviceGroup, the per-link trace samples.  They grow with every
    /// operation, so disable this for long sweeps and benchmark loops;
    /// counters, clocks, robustness tallies and link byte totals are kept
    /// either way.
    bool record_profiles = true;
};

/// Worker count throughput-oriented callers (benches, sweeps) should pass
/// as DeviceOptions::host_workers: the GPUSEL_WORKERS environment variable
/// if it is a whole decimal integer in [0, 1024], otherwise
/// hardware_concurrency() - 1 (the caller participates in parallel_for, so
/// this saturates the machine; 0 on single-core hosts).  Tests keep the
/// deterministic default of 0.
[[nodiscard]] unsigned default_host_workers() noexcept;

class Device {
public:
    using KernelFn = std::function<void(BlockCtx&)>;

    explicit Device(ArchSpec spec, DeviceOptions opts = {});
    // The memory pool's clock hook captures `this`; the device is pinned.
    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;
    Device(Device&&) = delete;
    Device& operator=(Device&&) = delete;

    [[nodiscard]] const ArchSpec& arch() const noexcept { return arch_; }
    [[nodiscard]] AllocationTracker& tracker() noexcept { return tracker_; }
    /// The device's stream-aware memory arena (see simt/pool.hpp).
    [[nodiscard]] MemoryPool& pool() noexcept { return mem_pool_; }

    /// Allocates a global-memory array of n Ts (fresh, non-pooled backing;
    /// prefer pooled() for scratch that is released and re-acquired).
    /// Throws AllocFault if an injected allocation fault fires.
    template <typename T>
    [[nodiscard]] DeviceBuffer<T> alloc(std::size_t n) {
        maybe_fail_alloc(n * sizeof(T));
        return DeviceBuffer<T>(tracker_, n, san_.get(), ssan_.get());
    }

    /// Checks out a pooled global-memory array of n Ts, ordered on `stream`.
    template <typename T>
    [[nodiscard]] PooledBuffer<T> pooled(std::size_t n, int stream = 0, bool zeroed = false) {
        return PooledBuffer<T>(mem_pool_, n, stream, zeroed);
    }

    /// Launches a kernel: executes `fn` for each block, merges counters,
    /// applies the timing model and advances the simulated clock.
    /// Returns the launch's profile (a stable copy kept by the device when
    /// profile recording is on).
    ///
    /// A non-empty `epilogue` is the grid's last-block step (the CUDA
    /// "threadfence reduction"): every block takes one ticket, charged as
    /// one global atomic in the body's counters, and the block that takes
    /// the last ticket runs `epilogue` once, after every block of the
    /// grid, on one warp (a BlockCtx of kWarpSize threads reporting block
    /// index grid_dim - 1).  It sees every write the grid made: SimTSan
    /// runs it in an epoch of its own, and StreamSan folds its accesses
    /// into the launch's.  Its counters land in KernelProfile::epilogue,
    /// which simulate_time prices after the grid body.  On hardware the
    /// ticket also costs a __threadfence() per block, which the model does
    /// not charge.
    KernelProfile launch(std::string name, const LaunchConfig& cfg, const KernelFn& fn,
                         const KernelFn& epilogue = {});

    // ---- streams & events --------------------------------------------------
    // The simulated clock is per stream: a launch on stream s starts when
    // the previous work on s finished, so independent streams overlap
    // (idealized full overlap, like concurrent kernels that fit the
    // device side by side).  elapsed_ns() reports the latest completion
    // over all streams (the wall-clock a host would observe after
    // cudaDeviceSynchronize).

    /// Creates a new stream and returns its id (>= 1; 0 is the default
    /// stream, which always exists).
    [[nodiscard]] int create_stream();
    /// Checks a stream out of the device's reusable lease set: returns a
    /// previously released stream id if one exists, otherwise creates a
    /// fresh stream.  A re-leased stream rejoins at the current device
    /// completion time (same causality rule as create_stream), so repeated
    /// batched runs on one device do not grow the stream table without
    /// bound.
    [[nodiscard]] int lease_stream();
    /// Returns a leased stream to the reuse set.  The caller must have
    /// joined the stream's work (wait_event / synchronize) first; the
    /// stream id may be handed to an unrelated later lease.
    void release_stream(int stream);
    /// Number of stream slots that exist on this device (default stream
    /// included; released leases still count until re-used).
    [[nodiscard]] int stream_count() const noexcept {
        return static_cast<int>(stream_clock_.size());
    }
    /// Simulated completion time of all work enqueued on one stream so far.
    [[nodiscard]] double stream_clock(int stream) const;
    /// Records an event on a stream: a timestamp of the work enqueued so
    /// far.  Returns the event's simulated time.  Under StreamSan the
    /// event's happens-before snapshot is keyed by this timestamp, which is
    /// what makes a later wait_event() on it a real ordering edge.
    [[nodiscard]] double record_event(int stream) {
        const double ns = stream_clock(stream);
        if (ssan_) ssan_->on_event_record(stream, ns);
        return ns;
    }
    /// Makes `stream` wait for an event timestamp (cudaStreamWaitEvent):
    /// subsequent launches on `stream` start no earlier than `event_ns`.
    void wait_event(int stream, double event_ns);
    /// Fast-forwards an idle stream's clock to `ns` without modelling a
    /// cross-stream event edge (a host-driven scheduling decision, e.g. the
    /// server aligning a dispatch round to its deadline).  Unlike
    /// wait_event this is NOT an ordering edge: StreamSan ignores it.  The
    /// device's completion time (elapsed_ns) moves along with the stream.
    void advance_stream(int stream, double ns);
    /// Host-side synchronization with every stream: advances all stream
    /// clocks to the global completion time.
    void synchronize();

    // ---- simulated clock & bookkeeping -----------------------------------
    [[nodiscard]] double elapsed_ns() const noexcept { return clock_ns_; }
    void reset_clock() noexcept {
        clock_ns_ = 0.0;
        for (auto& c : stream_clock_) c = 0.0;
        // Event timestamps recorded before the reset are no longer
        // meaningful; drop their snapshots so a recycled timestamp value
        // cannot alias a pre-reset event.
        if (ssan_) ssan_->reset_timeline();
    }
    [[nodiscard]] const std::vector<KernelProfile>& profiles() const noexcept { return profiles_; }
    void clear_profiles() { profiles_.clear(); }
    /// Sum of all counters since the last clear_profiles()/construction.
    [[nodiscard]] KernelCounters counter_totals() const;
    /// Number of launches performed since construction (independent of
    /// profile recording).
    [[nodiscard]] std::uint64_t launch_count() const noexcept { return launch_count_; }

    // ---- fault injection & robustness bookkeeping -------------------------
    // The Device owns the fault source (simt/fault.hpp) so allocation and
    // launch faults share one deterministic draw stream, and owns the
    // robustness tallies so every front-end running on this device reports
    // its recovery actions into one place.

    /// Installs a fault schedule (replacing any previous one).  The
    /// constructor installs GPUSEL_FAULTS from the environment if set.
    void set_faults(const FaultSpec& spec) { injector_ = FaultInjector(spec); }
    /// Removes the fault schedule; subsequent operations never fault.
    void clear_faults() { injector_ = FaultInjector(); }
    [[nodiscard]] const FaultInjector& fault_injector() const noexcept { return injector_; }
    /// Injected-fault tallies (what went wrong).
    [[nodiscard]] const FaultCounters& fault_counters() const noexcept {
        return injector_.counters();
    }
    /// Recovery-action tallies (what the selection stack did about it).
    /// Mutable: the pipeline increments these as it retries/resamples.
    [[nodiscard]] RobustnessCounters& robustness() noexcept { return robustness_; }
    [[nodiscard]] const RobustnessCounters& robustness() const noexcept { return robustness_; }

    // ---- planner log -------------------------------------------------------
    // core/planner.hpp records one PlannerEvent per selection, naming the
    // descent that ran; the chrome-trace export renders them as instant
    // events on the stream they applied to.  Host-side bookkeeping only:
    // no launch, no clock advance, no counter merge.

    /// Appends a descent record to the log (only with
    /// DeviceOptions::record_profiles), stamping the current stream clock so
    /// the trace event lands where the selection starts.
    void note_planner_event(PlannerEvent ev) {
        if (!opts_.record_profiles) return;
        ev.sim_ns = ev.stream >= 0 && ev.stream < stream_count() ? stream_clock(ev.stream) : 0.0;
        planner_log_.push_back(std::move(ev));
    }
    [[nodiscard]] const std::vector<PlannerEvent>& planner_log() const noexcept {
        return planner_log_;
    }

    // ---- SimTSan ----------------------------------------------------------
    // The Device owns the sanitizer (simt/sanitizer.hpp) so one shadow
    // registry covers every buffer, pool checkout and launch on this
    // device.  The constructor installs GPUSEL_SAN from the environment;
    // set_sanitizer() enables it programmatically.  Enable it before
    // allocating, as the env path does: buffers allocated earlier are not
    // shadow-tracked (no canaries either), and a sanitizer that still
    // tracks live buffers cannot be replaced (they would unregister from a
    // destroyed analyzer).

    /// Installs (or with SanMode::off removes) the sanitizer.  A device
    /// with host_workers == 0 runs every block inline, so its sanitizer
    /// takes the faster single-threaded shadow path.  Throws
    /// std::logic_error while the current sanitizer tracks any region.
    void set_sanitizer(SanMode mode);
    /// The active sanitizer, or nullptr when off.
    [[nodiscard]] Sanitizer* sanitizer() noexcept { return san_.get(); }
    [[nodiscard]] const Sanitizer* sanitizer() const noexcept { return san_.get(); }

    // ---- StreamSan --------------------------------------------------------
    // Happens-before hazard analysis over the stream/event/pool graph
    // (simt/streamsan.hpp).  The constructor installs GPUSEL_STREAMSAN from
    // the environment; set_stream_sanitizer() enables it programmatically.
    // Same rules as SimTSan: enable before allocating, and an analyzer that
    // still tracks live buffers cannot be replaced.

    /// Installs (or with SanMode::off removes) the stream sanitizer.
    /// Concurrent mode (host_workers != 0) makes the per-launch read/write
    /// set folding safe against blocks running on worker threads.  Throws
    /// std::logic_error while the current one tracks any region.
    void set_stream_sanitizer(SanMode mode);
    /// The active stream sanitizer, or nullptr when off.
    [[nodiscard]] StreamSan* stream_sanitizer() noexcept { return ssan_.get(); }
    [[nodiscard]] const StreamSan* stream_sanitizer() const noexcept { return ssan_.get(); }

private:
    /// Draws an allocation fault for a fresh (non-pooled) allocation.
    void maybe_fail_alloc(std::size_t bytes);

    ArchSpec arch_;
    DeviceOptions opts_;
    AllocationTracker tracker_;
    MemoryPool mem_pool_{tracker_};
    ThreadPool pool_;
    std::vector<KernelProfile> profiles_;
    KernelCounters totals_;
    double clock_ns_ = 0.0;                      ///< max completion over all streams
    std::vector<double> stream_clock_ = {0.0};   ///< per-stream completion time
    std::vector<int> stream_free_;               ///< released lease_stream() ids
    std::uint64_t launch_count_ = 0;
    FaultInjector injector_;
    RobustnessCounters robustness_;
    std::vector<PlannerEvent> planner_log_;
    std::unique_ptr<Sanitizer> san_;
    std::unique_ptr<StreamSan> ssan_;
};

}  // namespace gpusel::simt
