#include "simt/topology.hpp"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>

#include "simt/block.hpp"
#include "simt/timing.hpp"
#include "simt/trace.hpp"

namespace gpusel::simt {

DeviceGroup::DeviceGroup(TopologySpec spec) : spec_(std::move(spec)) {
    if (spec_.num_devices < 1) spec_.num_devices = 1;
    devices_.reserve(static_cast<std::size_t>(spec_.num_devices));
    link_in_.reserve(devices_.capacity());
    link_out_.reserve(devices_.capacity());
    for (int i = 0; i < spec_.num_devices; ++i) {
        devices_.push_back(std::make_unique<Device>(spec_.arch, spec_.device_opts));
        // Dedicated link streams, created before any lease so their ids are
        // stable and never handed to compute work.
        link_in_.push_back(devices_.back()->create_stream());
        link_out_.push_back(devices_.back()->create_stream());
    }
    const auto pairs =
        static_cast<std::size_t>(spec_.num_devices) * static_cast<std::size_t>(spec_.num_devices);
    link_busy_.assign(pairs, 0.0);
    link_bytes_.assign(pairs, 0);
}

std::size_t DeviceGroup::mem_capacity_bytes() const noexcept {
    if (spec_.mem_capacity_bytes != 0) return spec_.mem_capacity_bytes;
    return static_cast<std::size_t>(spec_.arch.mem_capacity_gb * (1ull << 30));
}

std::uint64_t DeviceGroup::total_link_bytes() const noexcept {
    std::uint64_t total = 0;
    for (const auto b : link_bytes_) total += b;
    return total;
}

void DeviceGroup::synchronize_all() {
    for (auto& d : devices_) d->synchronize();
}

double DeviceGroup::elapsed_ns() const noexcept {
    double latest = 0.0;
    for (const auto& d : devices_) latest = std::max(latest, d->elapsed_ns());
    return latest;
}

void DeviceGroup::reset_clocks() {
    for (auto& d : devices_) d->reset_clock();
    std::fill(link_busy_.begin(), link_busy_.end(), 0.0);
}

template <typename T>
TransferRecord DeviceGroup::transfer(int from, std::span<const T> src, std::size_t src_base,
                                     int to, std::span<T> dst, std::size_t dst_base,
                                     std::size_t count, int from_stream) {
    Device& sdev = device(from);
    Device& ddev = device(to);
    const std::size_t bytes = count * sizeof(T);
    const int out = link_out_[static_cast<std::size_t>(from)];
    const int in = link_in_[static_cast<std::size_t>(to)];
    const auto src_view = src.subspan(src_base, count);
    const auto dst_view = dst.subspan(dst_base, count);

    // The send happens after the producer's work on from_stream (a real
    // happens-before edge, so StreamSan accepts the read below).
    const double src_ready = sdev.record_event(from_stream);
    sdev.wait_event(out, src_ready);

    // Source endpoint: a coalesced read-only pass over the staging range.
    // Charges the bytes as global reads and leaves a StreamSan read note on
    // the source buffer, so overwriting it while the send is in flight is a
    // reportable hazard.
    constexpr int kBlockDim = 256;
    const int sgrid = suggest_grid(sdev.arch(), count, kBlockDim);
    sdev.launch("link_send",
                {.grid_dim = sgrid, .block_dim = kBlockDim, .stream = out}, [&](BlockCtx& blk) {
                    blk.warp_tiles(count, [&](WarpCtx& w, std::size_t base, std::size_t) {
                        T regs[kWarpSize];
                        w.load(src_view, base, regs);
                    });
                });

    // Wire time: transfers in one direction serialize on the link; the
    // payload leaves when both the send pass and the wire are free.
    const double send_done = sdev.stream_clock(out);
    double& busy = link_busy_[pair_index(from, to)];
    const double wire_start = std::max(send_done, busy);
    const double wire_end = wire_start + spec_.link.latency_ns +
                            (spec_.link.bandwidth_gbs > 0.0
                                 ? static_cast<double>(bytes) / spec_.link.bandwidth_gbs
                                 : 0.0);
    busy = wire_end;

    // Couple both link streams to the wire-arrival time.  advance_stream is
    // a scheduling fact, deliberately NOT an ordering edge: the only edge
    // consumers may rely on is the ready_ns event recorded after the
    // landing write.
    sdev.advance_stream(out, wire_end);
    ddev.advance_stream(in, wire_end);

    // Destination endpoint: materialize the payload.  The store charges
    // global writes and records the StreamSan write note on the landing
    // buffer; values are carried over the modeled wire (plain host reads of
    // the peer's memory -- the simulator's stand-in for DMA delivery).
    const int dgrid = suggest_grid(ddev.arch(), count, kBlockDim);
    ddev.launch("link_recv",
                {.grid_dim = dgrid, .block_dim = kBlockDim, .stream = in}, [&](BlockCtx& blk) {
                    blk.warp_tiles(count, [&](WarpCtx& w, std::size_t base, std::size_t cnt) {
                        T regs[kWarpSize];
                        for (std::size_t l = 0; l < cnt; ++l) regs[l] = src_view[base + l];
                        w.store(dst_view, base, regs);
                    });
                });
    const double src_done = sdev.record_event(out);
    const double ready = ddev.record_event(in);

    // Bookkeeping: byte totals always, the trace's per-link tracks only
    // when the group records profiles.
    const std::size_t pair = pair_index(from, to);
    link_bytes_[pair] += bytes;
    ++transfer_count_;
    if (spec_.device_opts.record_profiles) {
        const int track = kLinkTrackBase + static_cast<int>(pair);
        const std::string link_name =
            "link" + std::to_string(from) + "->" + std::to_string(to) + "_bytes";
        link_counters_.push_back({.sim_ns = wire_end,
                                  .track = track,
                                  .name = link_name,
                                  .value = static_cast<double>(link_bytes_[pair])});
        link_instants_.push_back({.sim_ns = wire_start,
                                  .track = track,
                                  .name = "transfer",
                                  .detail = "bytes=" + std::to_string(bytes) +
                                            " from=" + std::to_string(from) +
                                            " to=" + std::to_string(to)});
    }

    return {.bytes = bytes, .link_start_ns = wire_start, .link_end_ns = wire_end,
            .src_done_ns = src_done, .ready_ns = ready};
}

template TransferRecord DeviceGroup::transfer<float>(int, std::span<const float>, std::size_t,
                                                     int, std::span<float>, std::size_t,
                                                     std::size_t, int);
template TransferRecord DeviceGroup::transfer<double>(int, std::span<const double>, std::size_t,
                                                      int, std::span<double>, std::size_t,
                                                      std::size_t, int);
template TransferRecord DeviceGroup::transfer<std::int32_t>(int, std::span<const std::int32_t>,
                                                            std::size_t, int,
                                                            std::span<std::int32_t>, std::size_t,
                                                            std::size_t, int);
template TransferRecord DeviceGroup::transfer<std::uint32_t>(int, std::span<const std::uint32_t>,
                                                             std::size_t, int,
                                                             std::span<std::uint32_t>,
                                                             std::size_t, std::size_t, int);

void write_group_trace(std::ostream& os, const DeviceGroup& group) {
    std::vector<KernelProfile> merged;
    std::vector<PlannerEvent> planner;
    for (int i = 0; i < group.size(); ++i) {
        const Device& dev = group.device(i);
        for (KernelProfile p : dev.profiles()) {
            p.stream += i * kDeviceTrackStride;
            p.name = "dev" + std::to_string(i) + ":" + p.name;
            merged.push_back(std::move(p));
        }
        for (PlannerEvent ev : dev.planner_log()) {
            ev.stream += i * kDeviceTrackStride;
            planner.push_back(std::move(ev));
        }
    }
    write_chrome_trace(os, merged, planner, group.link_counters(), group.link_instants());
}

}  // namespace gpusel::simt
