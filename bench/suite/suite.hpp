#pragma once
// Shared pieces of gpusel_bench, the repository benchmark (README.md here):
// run options, the result record, host timing, seeded op draws, the
// reference oracle and the per-phase ledger built from kernel profiles.
//
// The benchmark only calls public entry points of the library and reads
// per-layer numbers from what the library already exposes (profiles,
// launch counts, trackers, robustness tallies, shard accounting, response
// milestones); nothing here reaches into src/.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "simt/arch.hpp"
#include "simt/counters.hpp"

namespace gpusel::bench {

/// One run as requested on the command line.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    /// Host seconds the measured phase keeps issuing operations for (the
    /// deterministic prefix always completes, however long it takes).
    double seconds = 10.0;
    /// Traced run: per-layer metrics instead of end-to-end ones.
    bool trace = false;
    /// Toy sizes and no time extension (the smoke test).
    bool quick = false;
    /// DeviceOptions::host_workers of every simulated device.
    unsigned workers = 2;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one workload run reports.
struct Outcome {
    std::vector<Metric> metrics;
    /// Extra context as (key, JSON value) pairs, printed before the result.
    std::vector<std::pair<std::string, std::string>> notes;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// The first few failure descriptions (printed to stderr).
    std::vector<std::string> failures;

    void add(std::string name, double value, std::string unit);
    void note(std::string key, std::string json_value);
    void fail(std::string what);
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds used so far by every thread of this process.  The host
/// metrics start from these rather than wall seconds: when other processes
/// compete for the cores, the wall time of launch-heavy work follows their
/// load (each launch wakes the worker threads) while the CPU time the
/// simulator spends moves far less (a sharded_512k op: +70% wall, +22% CPU).
[[nodiscard]] double process_cpu_s();

/// Reference seconds per CPU second of this machine right now.  CPU time
/// still follows the load of a shared machine (cache and core sharing,
/// clock changes): on a 4-core VM the same run's CPU rate moved by 20%
/// between runs minutes apart.  A fixed routine shaped like the
/// simulator's count and filter kernels (bucketing 2^16 floats into 256
/// buckets and scattering them) is timed again whenever the last timing is
/// older than a quarter second; the scale is its nominal time over its
/// measured time, so CPU seconds times the scale are reference seconds,
/// what the work would take on a machine as fast as the nominal one.  Call
/// it outside timed regions.
[[nodiscard]] double reference_scale();
/// Median CPU seconds of one pass of the reference routine so far.
[[nodiscard]] double reference_pass_s();

// ---- statistics --------------------------------------------------------

/// Percentile in [0, 100] by the floor-index rule the server uses
/// (ServerMetrics::latency_percentile); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double pct);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(std::span<const double> v);

// ---- seeded draws -------------------------------------------------------

/// Stratified draws for a workload's deterministic prefix: the first
/// `count` ops each take a point from their own stratum of [0, 1) (in a
/// seeded order), so the prefix covers the range evenly and its simulated
/// statistics vary little from seed to seed.
class Strata {
public:
    Strata(std::uint64_t seed, std::uint64_t stream, std::size_t count);
    /// Draw of op i; ops past the prefix replay it (i modulo count).
    [[nodiscard]] double at(std::size_t i) const;
    /// Splitter-sampling seed of op i (SampleSelectConfig::seed), replayed
    /// like at(): every op draws its own sample, so a run's simulated time
    /// averages over many samples instead of riding one sample's luck.
    [[nodiscard]] std::uint64_t sampler_seed(std::size_t i) const;

private:
    std::uint64_t seed_;
    std::uint64_t stream_;
    std::vector<std::size_t> order_;
};

// ---- reference oracle -----------------------------------------------------
// Each check returns an empty string on success and a description of the
// mismatch otherwise.  `sorted` is an ascending copy of the op's input,
// built outside every timed region.

[[nodiscard]] std::vector<float> sorted_copy(std::span<const float> data);

[[nodiscard]] std::string check_exact(std::span<const float> sorted, std::size_t rank, float got);

/// Top-k (largest): the threshold must be the k-th largest and the
/// returned elements must equal the reference's top-k multiset bit for bit.
[[nodiscard]] std::string check_topk(std::span<const float> sorted, std::size_t k, float threshold,
                                     std::vector<float> elements);

/// Rank error of an approximate answer, recomputed from the reference: the
/// distance from `rank` to the range of ranks that hold `value`.
[[nodiscard]] std::size_t approx_rank_error(std::span<const float> sorted, std::size_t rank,
                                            float value);

/// The documented approximate bound: half the largest bucket when the rank
/// has a splitter on both sides (it lies at least max_bucket from either
/// end), the whole largest bucket in the two edge buckets, which have only
/// one splitter.
[[nodiscard]] std::string check_approx(std::size_t n, std::size_t rank, std::size_t error,
                                       std::size_t max_bucket);

// ---- phase ledger -------------------------------------------------------
// Every launch's simulated time is split into its launch latency
// (ArchSpec host/device launch latency by origin) and its body, and the
// body is attributed to a phase by kernel name (suite.cpp holds the
// table).  Kernels the table does not know land in `other`.

enum Phase : std::size_t {
    kLaunch,
    kSample,
    kCount,
    kReduce,
    kSelectBucket,
    kFilter,
    kBaseCase,
    kRadix,
    kLink,
    kOther,
    kPhaseCount,
};

inline constexpr std::array<const char*, kPhaseCount> kPhaseNames = {
    "launch", "sample",    "count", "reduce", "select_bucket",
    "filter", "base_case", "radix", "link",   "other",
};

struct PhaseLedger {
    std::array<double, kPhaseCount> ns{};
    std::uint64_t launches = 0;
    /// Counters of the count and filter kernels, for the per-element
    /// traffic metrics of those layers.
    simt::KernelCounters count_counters;
    simt::KernelCounters filter_counters;

    void add(const simt::ArchSpec& arch, std::span<const simt::KernelProfile> profiles);
    /// Wire time of link transfers (latency + bytes / bandwidth), which
    /// the link streams wait out between the send and receive launches.
    void add_link_wire(double wire_ns) { ns[kLink] += wire_ns; }
    [[nodiscard]] double total_ns() const;
    /// phase.<name>.us_per_op for every phase, plus the layer counters.
    void emit(Outcome& out, double ops, double elems) const;
};

}  // namespace gpusel::bench
