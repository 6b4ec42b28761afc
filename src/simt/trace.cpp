#include "simt/trace.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <set>
#include <sstream>

namespace gpusel::simt {

std::map<std::string, KernelAggregate> aggregate_by_name(
    const std::vector<KernelProfile>& profiles) {
    std::map<std::string, KernelAggregate> by;
    for (const auto& p : profiles) {
        auto& a = by[p.name];
        ++a.launches;
        a.total_ns += p.sim_ns;
        a.counters += p.counters;
    }
    return by;
}

void write_chrome_trace(std::ostream& os, const std::vector<KernelProfile>& profiles) {
    write_chrome_trace(os, profiles, {});
}

void write_chrome_trace(std::ostream& os, const std::vector<KernelProfile>& profiles,
                        const std::vector<PlannerEvent>& planner_events) {
    write_chrome_trace(os, profiles, planner_events, {}, {});
}

void write_chrome_trace(std::ostream& os, const std::vector<KernelProfile>& profiles,
                        const std::vector<PlannerEvent>& planner_events,
                        const std::vector<TraceCounter>& counters,
                        const std::vector<TraceInstant>& instants) {
    os << "{\"traceEvents\":[";
    // Rebase on the earliest recorded start so traces taken after
    // clear_profiles() (or on a long-lived device) still begin at t = 0.
    double t0 = 0.0;
    if (!profiles.empty()) {
        t0 = profiles.front().start_ns;
        for (const auto& p : profiles) t0 = std::min(t0, p.start_ns);
    }
    // One named track per stream that actually appears: Chrome/Perfetto
    // render tid as a lane, so overlapping launches on different streams
    // display side by side instead of stacking on one row.
    std::set<int> streams;
    for (const auto& p : profiles) streams.insert(p.stream);
    for (const auto& e : planner_events) streams.insert(e.stream);
    bool first = true;
    for (const int s : streams) {
        if (!first) os << ',';
        first = false;
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << s
           << ",\"args\":{\"name\":\"stream " << s << "\"}}";
    }
    for (const auto& p : profiles) {
        if (!first) os << ',';
        first = false;
        const auto& c = p.counters;
        os << "{\"name\":\"" << p.name << "\",\"cat\":\"kernel\",\"ph\":\"X\""
           << ",\"ts\":" << (p.start_ns - t0) / 1000.0 << ",\"dur\":" << p.sim_ns / 1000.0
           << ",\"pid\":0,\"tid\":" << p.stream << ",\"args\":{"
           << "\"grid\":" << p.grid_dim << ",\"block\":" << p.block_dim
           << ",\"origin\":\"" << (p.origin == LaunchOrigin::host ? "host" : "device") << "\""
           << ",\"gmem_read\":" << c.global_bytes_read
           << ",\"gmem_write\":" << c.global_bytes_written
           << ",\"shared_atomics\":" << c.shared_atomic_ops
           << ",\"global_atomics\":" << c.global_atomic_ops
           << ",\"collisions\":" << c.shared_atomic_collisions + c.global_atomic_collisions
           << ",\"ballots\":" << c.warp_ballots << "}}";
    }
    // Descent records as instant events: one marker per selection at the
    // stream clock it was recorded on.  Records made before any launch
    // share the rebased origin (clamped at 0).
    for (const auto& e : planner_events) {
        if (!first) os << ',';
        first = false;
        os << "{\"name\":\"plan[" << e.backend << "]\",\"cat\":\"planner\",\"ph\":\"i\""
           << ",\"s\":\"t\",\"ts\":" << std::max(0.0, e.sim_ns - t0) / 1000.0
           << ",\"pid\":0,\"tid\":" << e.stream << ",\"args\":{"
           << "\"backend\":\"" << e.backend << "\",\"reason\":\"" << e.reason << "\""
           << ",\"n\":" << e.n << ",\"k\":" << e.k << "}}";
    }
    // Supervisor telemetry: name each counter/instant track after its
    // first event so the service tracks read as lanes in the viewer.
    std::map<int, std::string> track_names;
    for (const auto& c : counters) track_names.emplace(c.track, c.name);
    for (const auto& i : instants) track_names.emplace(i.track, i.name);
    for (const auto& [track, name] : track_names) {
        if (!first) os << ',';
        first = false;
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << track
           << ",\"args\":{\"name\":\"" << name << "\"}}";
    }
    for (const auto& c : counters) {
        if (!first) os << ',';
        first = false;
        os << "{\"name\":\"" << c.name << "\",\"cat\":\"service\",\"ph\":\"C\""
           << ",\"ts\":" << std::max(0.0, c.sim_ns - t0) / 1000.0 << ",\"pid\":0,\"tid\":"
           << c.track << ",\"args\":{\"value\":" << c.value << "}}";
    }
    for (const auto& i : instants) {
        if (!first) os << ',';
        first = false;
        os << "{\"name\":\"" << i.name << "\",\"cat\":\"service\",\"ph\":\"i\""
           << ",\"s\":\"t\",\"ts\":" << std::max(0.0, i.sim_ns - t0) / 1000.0
           << ",\"pid\":0,\"tid\":" << i.track << ",\"args\":{\"detail\":\"" << i.detail
           << "\"}}";
    }
    os << "]}";
}

std::string format_timeline(const std::vector<KernelProfile>& profiles) {
    const auto by = aggregate_by_name(profiles);
    double total = 0.0;
    for (const auto& [name, a] : by) total += a.total_ns;

    // sort by descending total time
    std::vector<std::pair<std::string, KernelAggregate>> rows(by.begin(), by.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.second.total_ns > b.second.total_ns; });

    std::ostringstream os;
    os << std::fixed << std::setprecision(1);
    for (const auto& [name, a] : rows) {
        os << std::left << std::setw(16) << name << std::right << " x" << std::setw(5)
           << a.launches << "  " << std::setw(12) << a.total_ns / 1000.0 << " us  "
           << std::setw(5) << (total > 0 ? a.total_ns / total * 100.0 : 0.0) << "%\n";
    }
    return os.str();
}

}  // namespace gpusel::simt
