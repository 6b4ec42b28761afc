#pragma once
// Profile post-processing: per-kernel aggregation and a chrome://tracing
// export of a device's launch history.  The simulated clock is per stream:
// every KernelProfile records the stream it ran on and its start time on
// that stream's clock, so the export renders one track (tid) per stream
// and overlapping launches on different streams show side by side.

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "simt/counters.hpp"

namespace gpusel::simt {

/// Aggregate statistics for all launches of one kernel name.
struct KernelAggregate {
    std::uint64_t launches = 0;
    double total_ns = 0.0;
    KernelCounters counters;
};

/// Groups a profile list by kernel name.
[[nodiscard]] std::map<std::string, KernelAggregate> aggregate_by_name(
    const std::vector<KernelProfile>& profiles);

/// Writes the launch history in the Chrome trace-event JSON format
/// (load via chrome://tracing or https://ui.perfetto.dev).  Timestamps are
/// microseconds of simulated time, rebased so the earliest launch starts at
/// zero; each stream renders as its own track (tid = stream id, named via
/// thread_name metadata) and each launch carries its event counters as
/// arguments.
void write_chrome_trace(std::ostream& os, const std::vector<KernelProfile>& profiles);

/// Overload that also renders the descent records (Device::planner_log())
/// as instant events ("i" phase) on the stream track each selection ran
/// on, with the descent, rationale and problem shape as event arguments.
/// Timestamps share the profiles' rebased clock, so a record appears right
/// where its selection starts.
void write_chrome_trace(std::ostream& os, const std::vector<KernelProfile>& profiles,
                        const std::vector<PlannerEvent>& planner_events);

/// Overload that additionally renders supervisor telemetry tracks: numeric
/// series (TraceCounter -> "C" counter events, e.g. the server's
/// queue-depth track) and point annotations (TraceInstant -> "i" instant
/// events, e.g. admission decisions).  Counter and
/// instant tracks render under their own tid (TraceCounter/Instant::track,
/// conventionally above the stream ids) with a thread_name of the first
/// event's name on that track.  Same rebased clock as the profiles.
void write_chrome_trace(std::ostream& os, const std::vector<KernelProfile>& profiles,
                        const std::vector<PlannerEvent>& planner_events,
                        const std::vector<TraceCounter>& counters,
                        const std::vector<TraceInstant>& instants);

/// Renders a compact text summary: one line per kernel name with launch
/// count, total simulated time and share of the overall runtime.
[[nodiscard]] std::string format_timeline(const std::vector<KernelProfile>& profiles);

}  // namespace gpusel::simt
