#include "suite.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <ctime>
#include <numeric>
#include <random>
#include <string_view>
#include <utility>

namespace gpusel::bench {

double process_cpu_s() {
    timespec t{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

namespace {

/// CPU seconds of one reference pass on the nominal machine: a round
/// figure below the 7-9.5 ms it takes on a loaded 4-core VM.
constexpr double kReferenceNominalS = 5e-3;
/// Wall seconds after which the reference is timed again.
constexpr double kReferenceIntervalS = 0.25;

/// The reference routine: count 2^16 floats into 256 buckets by binary
/// search over sorted splitters, then scatter them bucket by bucket.
class Reference {
public:
    Reference() : data_(std::size_t{1} << 16), out_(data_.size()), splitters_(255) {
        std::mt19937_64 rng(1);
        std::uniform_real_distribution<float> u(0.0f, 1.0f);
        for (float& x : data_) x = u(rng);
        for (float& x : splitters_) x = u(rng);
        std::sort(splitters_.begin(), splitters_.end());
    }

    /// CPU seconds of one pass.
    double time_pass() {
        const double cpu0 = process_cpu_s();
        std::array<std::uint32_t, 256> offset{};
        for (const float x : data_) ++offset[bucket(x)];
        std::uint32_t sum = 0;
        for (std::uint32_t& o : offset) sum += std::exchange(o, sum);
        for (const float x : data_) out_[offset[bucket(x)]++] = x;
        const double s = process_cpu_s() - cpu0;
        passes_.push_back(s);
        return s;
    }

    double scale() {
        if (passes_.empty() || seconds_since(last_) >= kReferenceIntervalS) {
            last_ = Clock::now();
            current_ = kReferenceNominalS / time_pass();
        }
        return current_;
    }

    [[nodiscard]] const std::vector<double>& passes() const { return passes_; }

private:
    [[nodiscard]] std::size_t bucket(float x) const {
        return static_cast<std::size_t>(
            std::upper_bound(splitters_.begin(), splitters_.end(), x) - splitters_.begin());
    }

    std::vector<float> data_;
    std::vector<float> out_;
    std::vector<float> splitters_;
    std::vector<double> passes_;
    Clock::time_point last_;
    double current_ = 1.0;
};

Reference& reference() {
    static Reference r;
    return r;
}

}  // namespace

double reference_scale() { return reference().scale(); }

double reference_pass_s() { return median(reference().passes()); }

void Outcome::add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
}

void Outcome::note(std::string key, std::string json_value) {
    notes.emplace_back(std::move(key), std::move(json_value));
}

void Outcome::fail(std::string what) {
    ++failed;
    if (failures.size() < 10) failures.push_back(std::move(what));
}

// ---- statistics --------------------------------------------------------

double percentile(std::vector<double> v, double pct) {
    if (v.empty()) return 0.0;
    const double pos = pct / 100.0 * static_cast<double>(v.size() - 1);
    const auto idx = std::min(static_cast<std::size_t>(pos), v.size() - 1);
    auto nth = v.begin() + static_cast<std::ptrdiff_t>(idx);
    std::nth_element(v.begin(), nth, v.end());
    return *nth;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double mean(std::span<const double> v) {
    if (v.empty()) return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

// ---- seeded draws -------------------------------------------------------

namespace {

std::uint64_t mix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/// Uniform draw in [0, 1) that depends only on (seed, stream, i).
double unit01(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
    const std::uint64_t h = mix64(mix64(mix64(seed) ^ stream) ^ i);
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

Strata::Strata(std::uint64_t seed, std::uint64_t stream, std::size_t count)
    : seed_(seed), stream_(stream), order_(count) {
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::mt19937_64 rng(mix64(seed ^ mix64(stream)));
    std::shuffle(order_.begin(), order_.end(), rng);
}

double Strata::at(std::size_t i) const {
    i %= order_.size();
    return (static_cast<double>(order_[i]) + unit01(seed_, stream_, i)) /
           static_cast<double>(order_.size());
}

std::uint64_t Strata::sampler_seed(std::size_t i) const {
    return mix64(mix64(seed_ ^ mix64(~stream_)) ^ (i % order_.size()));
}

// ---- reference oracle -----------------------------------------------------

namespace {

bool same_bits(float a, float b) {
    return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

std::string show(float v) {
    return std::to_string(v) + " (bits " + std::to_string(std::bit_cast<std::uint32_t>(v)) + ")";
}

}  // namespace

std::vector<float> sorted_copy(std::span<const float> data) {
    std::vector<float> s(data.begin(), data.end());
    std::sort(s.begin(), s.end());
    return s;
}

std::string check_exact(std::span<const float> sorted, std::size_t rank, float got) {
    if (rank >= sorted.size()) return "rank " + std::to_string(rank) + " out of range";
    if (same_bits(sorted[rank], got)) return {};
    return "rank " + std::to_string(rank) + ": got " + show(got) + ", reference " +
           show(sorted[rank]);
}

std::string check_topk(std::span<const float> sorted, std::size_t k, float threshold,
                       std::vector<float> elements) {
    const std::size_t n = sorted.size();
    if (k == 0 || k > n) return "k " + std::to_string(k) + " out of range";
    if (!same_bits(threshold, sorted[n - k])) {
        return "top-" + std::to_string(k) + " threshold: got " + show(threshold) +
               ", reference " + show(sorted[n - k]);
    }
    if (elements.size() != k) {
        return "top-" + std::to_string(k) + " returned " + std::to_string(elements.size()) +
               " elements";
    }
    std::sort(elements.begin(), elements.end());
    for (std::size_t i = 0; i < k; ++i) {
        if (!same_bits(elements[i], sorted[n - k + i])) {
            return "top-" + std::to_string(k) + " multiset differs at " + std::to_string(i) +
                   ": got " + show(elements[i]) + ", reference " + show(sorted[n - k + i]);
        }
    }
    return {};
}

std::size_t approx_rank_error(std::span<const float> sorted, std::size_t rank, float value) {
    const auto lo = static_cast<std::size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), value) - sorted.begin());
    const auto hi = static_cast<std::size_t>(
        std::upper_bound(sorted.begin(), sorted.end(), value) - sorted.begin());
    if (lo == hi) return rank > lo ? rank - lo : lo - rank;  // value absent: its rank is lo
    if (rank < lo) return lo - rank;
    return rank >= hi ? rank - (hi - 1) : 0;
}

std::string check_approx(std::size_t n, std::size_t rank, std::size_t error,
                         std::size_t max_bucket) {
    const bool interior = rank >= max_bucket && rank + max_bucket < n;
    const std::size_t bound = interior ? max_bucket / 2 : max_bucket;
    if (error <= bound) return {};
    return "approx rank " + std::to_string(rank) + ": error " + std::to_string(error) +
           " exceeds bound " + std::to_string(bound) + " (max_bucket " +
           std::to_string(max_bucket) + (interior ? ", interior)" : ", edge bucket)");
}

// ---- phase ledger -------------------------------------------------------

namespace {

/// Phase a kernel's body belongs to (kOther for unknown names).
Phase phase_of(std::string_view kernel) {
    // Kernel names as the library launches them.  `copy` materializes
    // selected elements (top-k accumulation, shard merge gathers), so it
    // counts as filter work; memset clears the count kernel's counters.
    struct Entry {
        std::string_view name;
        Phase phase;
    };
    static constexpr Entry kTable[] = {
        {"sample", kSample},
        {"pivot_sample", kSample},
        {"count", kCount},
        {"count_nowrite", kCount},
        {"memset", kCount},
        {"rank_count", kCount},
        {"reduce", kReduce},
        {"reduce_offsets", kReduce},
        {"scan_blocks", kReduce},
        {"scan_sums", kReduce},
        {"scan_add", kReduce},
        {"select_bucket", kSelectBucket},
        {"filter", kFilter},
        {"filter_topk", kFilter},
        {"topk_gather", kFilter},
        {"argselect_gather", kFilter},
        {"copy", kFilter},
        {"bitonic_sort", kBaseCase},
        {"bitonic_sort_batched", kBaseCase},
        {"batched_select", kBaseCase},
        {"radix_count", kRadix},
        {"radix_filter", kRadix},
        {"radix_walk", kRadix},
        {"radix_filter_topk", kRadix},
        {"link_send", kLink},
        {"link_recv", kLink},
    };
    for (const Entry& e : kTable) {
        if (e.name == kernel) return e.phase;
    }
    return kOther;
}

}  // namespace

void PhaseLedger::add(const simt::ArchSpec& arch, std::span<const simt::KernelProfile> profiles) {
    for (const simt::KernelProfile& p : profiles) {
        const double launch = p.origin == simt::LaunchOrigin::host ? arch.host_launch_ns
                                                                   : arch.device_launch_ns;
        const Phase ph = phase_of(p.name);
        ns[kLaunch] += launch;
        ns[ph] += p.sim_ns - launch;
        ++launches;
        if (ph == kCount) count_counters += p.counters;
        if (ph == kFilter) filter_counters += p.counters;
    }
}

double PhaseLedger::total_ns() const { return std::accumulate(ns.begin(), ns.end(), 0.0); }

void PhaseLedger::emit(Outcome& out, double ops, double elems) const {
    const double per_op = ops > 0.0 ? 1e-3 / ops : 0.0;  // ns -> us per op
    const double per_elem = elems > 0.0 ? 1.0 / elems : 0.0;
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
        out.add(std::string("phase.") + kPhaseNames[p] + ".us_per_op", ns[p] * per_op, "us");
    }
    out.add("simt.launches_per_op", ops > 0.0 ? static_cast<double>(launches) / ops : 0.0,
            "count");
    out.add("core.count.global_bytes_per_elem",
            static_cast<double>(count_counters.total_global_bytes()) * per_elem, "B/elem");
    out.add("core.count.atomics_per_elem",
            static_cast<double>(count_counters.total_atomic_ops()) * per_elem, "count/elem");
    out.add("core.filter.bytes_per_elem",
            static_cast<double>(filter_counters.total_global_bytes()) * per_elem, "B/elem");
    out.add("paper.fig9_filter_over_count",
            ns[kCount] > 0.0 ? ns[kFilter] / ns[kCount] : 0.0, "x");
}

}  // namespace gpusel::bench
