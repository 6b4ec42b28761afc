// gpusel_bench: the repository benchmark (bench/suite/README.md).
//
//   gpusel_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--commit SHA]
//   gpusel_bench --quick          every workload at toy size, all checks on
//   gpusel_bench --self-test      corrupts reference values; the oracle must trip
//   gpusel_bench --list-metrics   the metric names and units a run prints
//   gpusel_bench --list-workloads
//
// A run prints one context line and, as its last line, the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
// Exit codes: 0 correct, 1 a wrong answer or failed op, 2 an ambient
// GPUSEL_* knob that would change what is measured, 3 a usage error.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sample_select.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "simt/simd.hpp"
#include "suite.hpp"
#include "workloads.hpp"

#ifndef GPUSEL_BENCH_BUILD_TYPE
#define GPUSEL_BENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace gpusel::bench {
namespace {

struct MetricSpec {
    const char* name;
    const char* unit;
};

/// End-to-end metrics (untraced runs).  BENCHMARK.json lists the same
/// names, units, directions and bounds.
constexpr MetricSpec kEndToEnd[] = {
    {"sim_gelems_per_s", "Gelem/s"}, {"sim_us_p50", "us"}, {"sim_us_p90", "us"},
    {"host_ops_per_ref_s", "1/s"},   {"setup_s", "s"},     {"host_peak_rss_mb", "MB"},
};

/// Per-layer metrics (traced runs).  A workload that lacks a layer
/// reports 0 for its metrics.
constexpr MetricSpec kPerLayer[] = {
    {"phase.launch.us_per_op", "us"},
    {"phase.sample.us_per_op", "us"},
    {"phase.count.us_per_op", "us"},
    {"phase.reduce.us_per_op", "us"},
    {"phase.select_bucket.us_per_op", "us"},
    {"phase.filter.us_per_op", "us"},
    {"phase.base_case.us_per_op", "us"},
    {"phase.radix.us_per_op", "us"},
    {"phase.link.us_per_op", "us"},
    {"phase.other.us_per_op", "us"},
    {"simt.launches_per_op", "count"},
    {"simt.pool.allocs_per_op", "count"},
    {"core.count.global_bytes_per_elem", "B/elem"},
    {"core.count.atomics_per_elem", "count/elem"},
    {"core.filter.bytes_per_elem", "B/elem"},
    {"core.planner.sample_frac", "frac"},
    {"core.planner.radix_frac", "frac"},
    {"core.planner.bitonic_frac", "frac"},
    {"core.planner.resamples_per_op", "count"},
    {"core.planner.probe_host_us", "us"},
    {"core.pipeline.levels_per_op", "count"},
    {"core.pipeline.equality_exit_frac", "frac"},
    {"core.pipeline.aux_per_elem", "B/B"},
    {"core.batch.overlap_x", "x"},
    {"core.batch.streams_used", "count"},
    {"approx.rank_err_ppm", "ppm"},
    {"approx.max_bucket_over_mean", "x"},
    {"server.latency_us_p50.light", "us"},
    {"server.latency_us_p99.light", "us"},
    {"server.latency_us_p99.heavy", "us"},
    {"server.max_rps_at_slo", "1/s"},
    {"server.queue_wait_us_p50", "us"},
    {"server.queue_wait_us_p99", "us"},
    {"server.service_us_p50", "us"},
    {"server.round_size_mean", "count"},
    {"server.submit_host_us_p50", "us"},
    {"server.pump_host_us_p50", "us"},
    {"server.metrics_bytes", "B"},
    {"shard.launches_per_op", "count"},
    {"shard.link_bytes_per_op", "B"},
    {"shard.transfers_per_op", "count"},
    {"shard.device_busy_frac", "frac"},
    {"shard.skew_ratio", "frac"},
    {"shard.aux_frac_of_capacity", "frac"},
    {"host.us_per_launch", "us"},
    {"host.ns_per_elem", "ns"},
    {"host.san_slowdown_x", "x"},
    {"host.streamsan_slowdown_x", "x"},
    {"trace.overhead_x", "x"},
    {"paper.fig10_speedup", "x"},
    {"paper.fig9_filter_over_count", "x"},
};

/// Ambient knobs that change what a run measures (fault injection,
/// sanitizers, a forced backend, a forced stream fan).  Refused.
constexpr const char* kRefusedEnv[] = {"GPUSEL_FAULTS", "GPUSEL_SAN", "GPUSEL_STREAMSAN",
                                       "GPUSEL_BACKEND", "GPUSEL_STREAMS"};

std::string json_string(const std::string& s) {
    std::string o = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            o += '\\';
            o += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            o += ' ';
        } else {
            o += c;
        }
    }
    return o + "\"";
}

std::string json_number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Every GPUSEL_* variable set in the environment, as a JSON object.
std::string gpusel_env_json() {
    std::string o = "{";
    bool first = true;
    for (char** e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("GPUSEL_", 0) != 0) continue;
        const auto eq = kv.find('=');
        o += (first ? "" : ", ") + json_string(kv.substr(0, eq)) + ": " +
             json_string(eq == std::string::npos ? "" : kv.substr(eq + 1));
        first = false;
    }
    return o + "}";
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Checks the run emitted exactly the metrics of its mode with the listed
/// units, filling per-layer metrics of layers the workload lacks with 0.
/// Returns an error description, empty when the set is complete.
std::string complete_metrics(Outcome& out, bool trace) {
    const std::span<const MetricSpec> table = trace ? std::span<const MetricSpec>(kPerLayer)
                                                    : std::span<const MetricSpec>(kEndToEnd);
    std::map<std::string, const Metric*> got;
    for (const Metric& m : out.metrics) {
        if (!got.emplace(m.name, &m).second) return "metric " + m.name + " emitted twice";
        if (!std::isfinite(m.value)) return "metric " + m.name + " is not finite";
    }
    std::vector<Metric> ordered;
    for (const MetricSpec& s : table) {
        const auto it = got.find(s.name);
        if (it == got.end()) {
            if (!trace) return std::string("end-to-end metric ") + s.name + " missing";
            ordered.push_back({s.name, 0.0, s.unit});
            continue;
        }
        if (it->second->unit != s.unit) {
            return "metric " + it->first + " has unit " + it->second->unit + ", expected " + s.unit;
        }
        ordered.push_back(*it->second);
        got.erase(it);
    }
    if (!got.empty()) return "metric " + got.begin()->first + " is not in the metric table";
    out.metrics = std::move(ordered);
    return {};
}

std::string result_json(const Outcome& out) {
    std::string o = "{\"correct\": ";
    o += out.failed == 0 ? "true" : "false";
    o += ", \"attempted\": " + std::to_string(out.attempted);
    o += ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric& m = out.metrics[i];
        o += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " + json_number(m.value) +
             ", \"unit\": " + json_string(m.unit) + "}";
    }
    return o + "}}";
}

std::string context_json(const Options& o, const std::string& commit, const Outcome& out) {
    std::string c = "{\"context\": {";
    c += "\"workload\": " + json_string(o.workload);
    c += ", \"seed\": " + std::to_string(o.seed);
    c += ", \"seconds\": " + json_number(o.seconds);
    c += ", \"trace\": " + std::to_string(o.trace ? 1 : 0);
    c += ", \"build_type\": " + json_string(GPUSEL_BENCH_BUILD_TYPE);
    c += ", \"simd\": " + json_string(simt::simd::level_name(simt::simd::active_level()));
    c += ", \"host_workers\": " + std::to_string(o.workers);
    c += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
    c += ", \"commit\": " + json_string(commit);
    c += ", \"env\": " + gpusel_env_json();
    c += ", \"clocks\": \"sim_* and the per-layer phase/count metrics use the simulated clock "
         "(deterministic per seed); host_ops_per_ref_s and setup_s use reference seconds "
         "(host CPU seconds scaled by a timed reference routine), host.* and trace.* host CPU "
         "seconds of the process, *_host_* the host wall clock\"";
    c += ", \"model\": \"timing model calibrated to the paper's shapes, not validated "
         "against hardware: no error figure\"";
    c += ", \"paper_reference\": {\"sim_gelems_per_s\": 40, \"fig10_speedup\": 2, "
         "\"source\": \"V100 sample-s at n = 2^22 (Fig. 8), approximate b = 1024 (Fig. 10)\"}";
    for (const auto& [k, v] : out.notes) c += ", " + json_string(k) + ": " + v;
    return c + "}}";
}

void print_failures(const std::string& label, const Outcome& out) {
    for (const std::string& f : out.failures) std::cerr << label << ": FAIL " << f << "\n";
    if (out.failed > out.failures.size()) {
        std::cerr << label << ": ... " << out.failed - out.failures.size() << " more failures\n";
    }
}

/// The oracle must reject a wrong answer: run real selections, corrupt the
/// reference value each one is compared against, and require the checks
/// to trip (and to pass on the intact reference).
int self_test() {
    simt::Device dev(simt::arch_v100());
    const std::size_t n = 1 << 14;
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 7});
    std::vector<float> sorted = sorted_copy(data);
    int bad = 0;
    auto expect = [&](bool ok, const char* what) {
        std::cerr << "self-test: " << what << (ok ? " ok\n" : " FAILED\n");
        bad += ok ? 0 : 1;
    };

    const std::size_t rank = 1234;
    auto sel = core::try_sample_select<float>(dev, data, rank, core::SampleSelectConfig{});
    expect(sel.ok() && check_exact(sorted, rank, sel.value().value).empty(),
           "exact answer matches the intact reference");
    const float kept = sorted[rank];
    sorted[rank] = std::nextafter(kept, 2.0f);
    expect(sel.ok() && !check_exact(sorted, rank, sel.value().value).empty(),
           "exact check trips on a corrupted reference value");
    sorted[rank] = kept;

    const std::size_t k = 100;
    auto top = core::try_topk_largest<float>(dev, data, k, core::SampleSelectConfig{});
    expect(top.ok() && check_topk(sorted, k, top.value().threshold, top.value().elements).empty(),
           "top-k answer matches the intact reference");
    sorted[n - 3] = std::nextafter(sorted[n - 3], 2.0f);
    expect(top.ok() &&
               !check_topk(sorted, k, top.value().threshold, top.value().elements).empty(),
           "top-k check trips on a corrupted reference value");
    return bad == 0 ? 0 : 1;
}

/// Every workload at toy size, untraced and traced, with all checks on.
int quick(unsigned workers) {
    int bad = 0;
    for (const std::string& name : workload_names()) {
        for (const bool trace : {false, true}) {
            Options o{.workload = name, .seconds = 0.0, .trace = trace, .quick = true,
                      .workers = workers};
            Outcome out;
            const auto t0 = Clock::now();
            const bool known = run_workload(o, out);
            if (!trace && known) out.add("host_peak_rss_mb", peak_rss_mb(), "MB");
            const std::string err = known ? complete_metrics(out, trace) : "unknown workload";
            const std::string label = name + (trace ? " traced" : "");
            print_failures(label, out);
            const bool ok = err.empty() && out.failed == 0 && out.attempted > 0;
            std::cout << label << ": " << (ok ? "ok" : "FAILED " + err) << " (" << out.attempted
                      << " ops, " << seconds_since(t0) << " s)\n";
            bad += ok ? 0 : 1;
        }
    }
    return bad == 0 ? 0 : 1;
}

int usage(const std::string& msg) {
    std::cerr << "gpusel_bench: " << msg << "\n"
              << "usage: gpusel_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] "
                 "[--commit SHA]\n"
              << "       gpusel_bench --quick | --self-test | --list-metrics | --list-workloads\n"
              << "workloads:";
    for (const std::string& w : workload_names()) std::cerr << " " << w;
    std::cerr << "\n";
    return 3;
}

/// Host worker threads: GPUSEL_WORKERS when set, otherwise 2.
bool host_workers(unsigned& workers) {
    workers = 2;
    const char* env = std::getenv("GPUSEL_WORKERS");
    if (env == nullptr || *env == '\0') return true;
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (*end != '\0' || v < 0 || v > 64) return false;
    workers = static_cast<unsigned>(v);
    return true;
}

int run(int argc, char** argv) {
    Options o;
    std::string commit = "unknown";
    bool want_quick = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        if (a == "--self-test") return self_test();
        if (a == "--list-workloads") {
            for (const std::string& w : workload_names()) std::cout << w << "\n";
            return 0;
        }
        if (a == "--list-metrics") {
            for (const MetricSpec& s : kEndToEnd) {
                std::cout << "end_to_end " << s.name << " " << s.unit << "\n";
            }
            for (const MetricSpec& s : kPerLayer) {
                std::cout << "per_layer " << s.name << " " << s.unit << "\n";
            }
            return 0;
        }
        if (a == "--quick") {
            want_quick = true;
            continue;
        }
        const char* v = value();
        if (v == nullptr) return usage("missing value for " + a);
        char* end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, &end);
        } else if (a == "--trace") {
            o.trace = std::strcmp(v, "1") == 0;
            if (!o.trace && std::strcmp(v, "0") != 0) return usage("--trace takes 0 or 1");
        } else if (a == "--commit") {
            commit = v;
        } else {
            return usage("unknown argument " + a);
        }
        if (end != nullptr && *end != '\0') return usage("bad value for " + a + ": " + v);
    }
    if (!host_workers(o.workers)) return usage("GPUSEL_WORKERS must be an integer in [0, 64]");
    for (const char* knob : kRefusedEnv) {
        if (std::getenv(knob) != nullptr) {
            std::cerr << "gpusel_bench: " << knob
                      << " is set; it changes what the benchmark measures, unset it\n";
            return 2;
        }
    }
    if (want_quick) return quick(o.workers);
    if (o.workload.empty()) return usage("--workload is required");
    if (!(o.seconds >= 0.0)) return usage("--seconds must be >= 0");

    Outcome out;
    if (!run_workload(o, out)) return usage("unknown workload " + o.workload);
    if (!o.trace) out.add("host_peak_rss_mb", peak_rss_mb(), "MB");
    if (const std::string err = complete_metrics(out, o.trace); !err.empty()) {
        std::cerr << "gpusel_bench: " << err << "\n";
        return 3;
    }
    print_failures(o.workload, out);
    std::cout << context_json(o, commit, out) << "\n" << result_json(out) << std::endl;
    return out.failed == 0 && out.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace gpusel::bench

int main(int argc, char** argv) {
    try {
        return gpusel::bench::run(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "gpusel_bench: " << e.what() << "\n";
        return 1;
    }
}
