#pragma once
// Multi-device topology for the simulator: a DeviceGroup owns N simulated
// Devices plus a modeled all-to-all interconnect (NVLink/PCIe-style).  A
// transfer between two devices is not free host magic -- it is two real
// kernel launches (a read-only "link_send" pass on the source's dedicated
// link-out stream and a materializing "link_recv" pass on the destination's
// link-in stream) whose bytes are charged like global-memory traffic, plus
// a wire-time term (latency + bytes/bandwidth) that serializes per directed
// link.  Because the endpoints are real launches with real read/write
// notes, SimTSan and StreamSan see cross-device traffic exactly like any
// other kernel: a consumer that reads the landing buffer without waiting on
// the transfer's ready event is a reportable read_write_race, and an
// overwrite of the staging buffer while the send is in flight is a
// write_write/race on the source side.
//
// Per-link byte totals are additionally folded into TraceCounter samples
// (cumulative bytes, one track per directed link at kLinkTrackBase + pair
// index) and per-transfer TraceInstant annotations, so the chrome-trace
// export renders the interconnect as its own set of tracks next to the
// compute streams (docs/sharding.md).

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "simt/arch.hpp"
#include "simt/counters.hpp"
#include "simt/device.hpp"

namespace gpusel::simt {

/// Trace track id of the first directed link; link (from, to) renders at
/// kLinkTrackBase + from * num_devices + to.  Chosen above the server
/// telemetry tracks (1000-1003) so merged traces never collide.
inline constexpr int kLinkTrackBase = 1100;

/// One directed interconnect link's characteristics.  The defaults model a
/// PCIe-gen3-x16-class link: far slower than device memory, so sharding
/// decisions that ignore transfer volume show up in the simulated clock.
struct LinkSpec {
    /// Wire bandwidth in GB/s (numerically bytes per nanosecond).
    double bandwidth_gbs = 12.0;
    /// Fixed per-transfer latency (DMA setup + flight time), nanoseconds.
    double latency_ns = 1500.0;
};

/// Shape of a device group: how many devices, which architecture they are,
/// how they are wired, and (for tests) an optional override of the modeled
/// per-device memory capacity so out-of-core behaviour is reachable without
/// gigabyte-scale host allocations.
struct TopologySpec {
    int num_devices = 2;
    ArchSpec arch;
    LinkSpec link;
    /// Modeled per-device memory capacity in bytes; 0 means "use
    /// arch.mem_capacity_gb".  The sharded front-end chunks inputs against
    /// this figure, so tests shrink it to exercise 8x-memory inputs cheaply.
    std::size_t mem_capacity_bytes = 0;
    DeviceOptions device_opts;
};

/// What one transfer() did, in simulated time.  ready_ns is the event
/// timestamp recorded on the destination's link-in stream after the
/// landing write: consumers MUST wait_event(consumer_stream, ready_ns)
/// before reading the destination range -- the group does not do it for
/// them (and the StreamSan broken-scenario tests rely on omitting it).
struct TransferRecord {
    std::size_t bytes = 0;
    /// Wire occupancy interval on the directed link.
    double link_start_ns = 0.0;
    double link_end_ns = 0.0;
    /// Event timestamp on the source's link-out stream after the send pass:
    /// wait_event on it before overwriting or releasing the source range.
    double src_done_ns = 0.0;
    /// Event timestamp on the destination's link-in stream; the ordering
    /// edge consumers must adopt via Device::wait_event.
    double ready_ns = 0.0;
};

/// A group of simulated devices joined by a modeled interconnect.
class DeviceGroup {
public:
    explicit DeviceGroup(TopologySpec spec);

    [[nodiscard]] int size() const noexcept { return static_cast<int>(devices_.size()); }
    [[nodiscard]] Device& device(int i) { return *devices_.at(static_cast<std::size_t>(i)); }
    [[nodiscard]] const Device& device(int i) const {
        return *devices_.at(static_cast<std::size_t>(i));
    }
    [[nodiscard]] const TopologySpec& spec() const noexcept { return spec_; }

    /// Modeled memory capacity of one device in bytes (the spec override,
    /// or the architecture's datasheet capacity).
    [[nodiscard]] std::size_t mem_capacity_bytes() const noexcept;

    /// Copies count elements from src[src_base...] on device `from` to
    /// dst[dst_base...] on device `to`.  Ordering: the send waits for an
    /// event recorded on `from_stream` (the producer's stream), the landing
    /// write happens on `to`'s link-in stream, and the returned ready_ns is
    /// the edge consumers must wait_event() on.  Charges the bytes as
    /// global traffic on both endpoints plus wire time on the directed
    /// link (which serializes transfers in the same direction).
    template <typename T>
    TransferRecord transfer(int from, std::span<const T> src, std::size_t src_base, int to,
                            std::span<T> dst, std::size_t dst_base, std::size_t count,
                            int from_stream);

    /// Bytes moved so far over the directed link from -> to.
    [[nodiscard]] std::uint64_t link_bytes(int from, int to) const {
        return link_bytes_.at(pair_index(from, to));
    }
    /// Bytes moved over all links since construction.
    [[nodiscard]] std::uint64_t total_link_bytes() const noexcept;
    /// Number of transfer() calls since construction.
    [[nodiscard]] std::uint64_t transfer_count() const noexcept { return transfer_count_; }

    /// Cumulative per-link byte samples ("C" counter events, one track per
    /// directed link) and per-transfer annotations for the chrome-trace
    /// export; pass to write_chrome_trace or use write_group_trace below.
    [[nodiscard]] const std::vector<TraceCounter>& link_counters() const noexcept {
        return link_counters_;
    }
    [[nodiscard]] const std::vector<TraceInstant>& link_instants() const noexcept {
        return link_instants_;
    }

    /// Host-side join with every stream of every device.
    void synchronize_all();
    /// Latest completion time over all devices (the group's wall clock).
    [[nodiscard]] double elapsed_ns() const noexcept;
    /// Resets every device's simulated clock and the link occupancy state
    /// (for bench loops); profiles and byte totals are left alone.
    void reset_clocks();

private:
    [[nodiscard]] std::size_t pair_index(int from, int to) const {
        return static_cast<std::size_t>(from) * static_cast<std::size_t>(size()) +
               static_cast<std::size_t>(to);
    }

    TopologySpec spec_;
    // Device pins itself (the pool's clock hook captures `this`), so the
    // group owns through stable unique_ptrs.
    std::vector<std::unique_ptr<Device>> devices_;
    /// Dedicated link streams per device (created at construction, never
    /// leased out): sends serialize on the source's link-out stream,
    /// landings on the destination's link-in stream.
    std::vector<int> link_in_;
    std::vector<int> link_out_;
    /// Wire-busy-until time per directed pair (transfers in one direction
    /// serialize; opposite directions are independent, full duplex).
    std::vector<double> link_busy_;
    std::vector<std::uint64_t> link_bytes_;
    std::uint64_t transfer_count_ = 0;
    std::vector<TraceCounter> link_counters_;
    std::vector<TraceInstant> link_instants_;
};

/// Merged chrome-trace export for a whole group: device i's stream s
/// renders as tid i * kDeviceTrackStride + s, planner logs are merged, and
/// the per-link byte tracks land at kLinkTrackBase.  One file shows the
/// compute overlap across devices and the interconnect occupancy between
/// them.
inline constexpr int kDeviceTrackStride = 100;
void write_group_trace(std::ostream& os, const DeviceGroup& group);

}  // namespace gpusel::simt
