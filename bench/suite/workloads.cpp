#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <utility>

#include "core/approx_select.hpp"
#include "core/planner.hpp"
#include "core/quantile.hpp"
#include "core/sample_select.hpp"
#include "core/shard_select.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "server/service.hpp"
#include "simt/device.hpp"
#include "simt/topology.hpp"

namespace gpusel::bench {
namespace {

/// After one unrecorded set-up (the process's first pays for growing the
/// heap and starting threads), a run sets its workload up at least
/// kMinSetups times and until kMinSetupSeconds have passed (at most
/// kMaxSetups times); setup_s is the median, so a cheap set-up is repeated
/// often enough to be steady.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 500;
constexpr double kMinSetupSeconds = 1.5;
/// Traced runs also run the first 1/kTwinShare of the prefix on an
/// untraced device, so trace.overhead_x compares the two over the same ops.
constexpr std::size_t kTwinShare = 4;
/// Approximate selection's bucket count (the paper's Fig. 10 point).
constexpr int kApproxBuckets = 1024;
/// Quality guard: averaged over a run's ops, the largest approximate bucket
/// may not exceed this many times the mean bucket n / b.  With 4 samples
/// per bucket and a fresh sample per op it averages 3.44-3.48x over a run
/// of 1000 ops; coarser buckets would buy speed with rank error, so they
/// count as a wrong answer, not a faster one.  (One op's largest bucket
/// tops 4x about once in ten ops, so the guard is on the run's mean.)
constexpr double kApproxMaxBucketFactor = 4.0;

double ns_since(Clock::time_point t0) { return seconds_since(t0) * 1e9; }

/// CPU nanoseconds of this process since `cpu0` (a process_cpu_s() stamp).
double cpu_ns_since(double cpu0) { return (process_cpu_s() - cpu0) * 1e9; }

/// One executed operation: its simulated latency and what the public call
/// cost the host.
struct OpRecord {
    double sim_ns = 0.0;
    /// Host CPU time of every thread of the process.
    double cpu_ns = 0.0;
    /// The same in reference nanoseconds (reference_scale()).
    double ref_ns = 0.0;
    double wall_ns = 0.0;
    double elems = 0.0;
};

/// Starts both host clocks at construction.
class HostTimer {
public:
    [[nodiscard]] OpRecord stop(double elems) const {
        OpRecord op{.cpu_ns = cpu_ns_since(cpu0_), .wall_ns = ns_since(wall0_), .elems = elems};
        op.ref_ns = op.cpu_ns * reference_scale();
        return op;
    }

private:
    double cpu0_ = process_cpu_s();
    Clock::time_point wall0_ = Clock::now();
};

std::unique_ptr<simt::Device> make_device(const Options& o, bool profiles) {
    return std::make_unique<simt::Device>(
        simt::arch_v100(),
        simt::DeviceOptions{.host_workers = o.workers, .record_profiles = profiles});
}

/// Dataset `id` of a workload, the same in every run; the run's seed draws
/// the operations on it.  Selection cost depends on the data (splitter
/// luck, shared radix digits): drawing the 16-value set of topk_skewed_1m
/// per seed moved its simulated time by 30%, and drawing service_64k's
/// layouts per seed more than doubled its latency spread, because all
/// requests on one dataset share the server's splitter sample.
std::vector<float> dataset(std::size_t n, data::Distribution dist, std::uint64_t id,
                           std::size_t distinct = 0) {
    return data::generate<float>({.n = n, .dist = dist, .distinct_values = distinct, .seed = id});
}

std::size_t rank_of(double u, std::size_t n) {
    return std::min(n - 1, static_cast<std::size_t>(u * static_cast<double>(n)));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Sets the workload up repeatedly (see kMinSetups), keeping the last
/// state; `setup` builds a fresh state and runs its warm-up op.  Returns
/// the reference seconds of each recorded set-up.
template <class State, class Setup>
std::vector<double> set_up(std::unique_ptr<State>& state, bool quick, const Setup& setup) {
    if (!quick) state = setup();
    std::vector<double> times;
    double total = 0.0;
    while (times.empty() ||
           (!quick && times.size() < kMaxSetups &&
            (times.size() < kMinSetups || total < kMinSetupSeconds))) {
        state.reset();  // one set-up alive at a time
        const double cpu0 = process_cpu_s();
        state = setup();
        const double cpu_s = process_cpu_s() - cpu0;
        total += cpu_s;
        times.push_back(cpu_s * reference_scale());
    }
    return times;
}

/// Simulated time a device's launches kept it busy, counting launches
/// that overlap on different streams once.
double busy_ns(const std::vector<simt::KernelProfile>& profiles) {
    std::vector<std::pair<double, double>> spans;
    spans.reserve(profiles.size());
    for (const simt::KernelProfile& p : profiles) {
        spans.emplace_back(p.start_ns, p.start_ns + p.sim_ns);
    }
    std::sort(spans.begin(), spans.end());
    double busy = 0.0;
    double end = -std::numeric_limits<double>::infinity();
    for (const auto& [s, e] : spans) {
        busy += std::max(0.0, e - std::max(s, end));
        end = std::max(end, e);
    }
    return busy;
}

/// Per-layer accumulations of a traced run.
struct LayerTally {
    PhaseLedger ledger;
    double ops = 0.0;
    double elems = 0.0;
    double cpu_ns = 0.0;
    double sim_ns = 0.0;
    double levels = 0.0;
    double equality_exits = 0.0;
    double aux_bytes = 0.0;
    double input_bytes = 0.0;
    std::uint64_t allocs = 0;
    std::uint64_t resamples = 0;
    /// Planner decisions by backend: sample, radix, bitonic.
    std::array<std::uint64_t, 3> backend{};
    std::vector<double> probe_ns;
    double twin_traced_ns = 0.0;
    double twin_plain_ns = 0.0;

    void emit(Outcome& out) const {
        ledger.emit(out, ops, elems);
        const auto decisions = static_cast<double>(backend[0] + backend[1] + backend[2]);
        out.add("core.planner.sample_frac", ratio(static_cast<double>(backend[0]), decisions),
                "frac");
        out.add("core.planner.radix_frac", ratio(static_cast<double>(backend[1]), decisions),
                "frac");
        out.add("core.planner.bitonic_frac", ratio(static_cast<double>(backend[2]), decisions),
                "frac");
        out.add("core.planner.resamples_per_op", ratio(static_cast<double>(resamples), ops),
                "count");
        out.add("core.planner.probe_host_us", mean(probe_ns) * 1e-3, "us");
        out.add("core.pipeline.levels_per_op", ratio(levels, ops), "count");
        out.add("core.pipeline.equality_exit_frac", ratio(equality_exits, ops), "frac");
        out.add("core.pipeline.aux_per_elem", ratio(aux_bytes, input_bytes), "B/B");
        out.add("simt.pool.allocs_per_op", ratio(static_cast<double>(allocs), ops), "count");
        out.add("host.us_per_launch",
                ratio(cpu_ns, static_cast<double>(ledger.launches)) * 1e-3, "us");
        out.add("host.ns_per_elem", ratio(cpu_ns, elems), "ns");
        out.add("trace.overhead_x", ratio(twin_traced_ns, twin_plain_ns), "x");
    }
};

/// A device's tallies before an op, so the op's share can be folded in.
struct DeviceMark {
    simt::RobustnessCounters rc;
    std::uint64_t allocs = 0;

    explicit DeviceMark(simt::Device& d) : rc(d.robustness()), allocs(d.tracker().alloc_count()) {}

    /// Adds the device's activity since the mark to `t` and drops its
    /// profiles (so the next op starts from an empty list).
    void fold(simt::Device& d, LayerTally& t) const {
        const simt::RobustnessCounters& now = d.robustness();
        t.resamples += now.resamples - rc.resamples;
        t.backend[0] += now.backend_sample - rc.backend_sample;
        t.backend[1] += now.backend_radix - rc.backend_radix;
        t.backend[2] += now.backend_bitonic - rc.backend_bitonic;
        t.allocs += d.tracker().alloc_count() - allocs;
        t.ledger.add(d.arch(), d.profiles());
        d.clear_profiles();
    }
};

void emit_sim(Outcome& out, const std::vector<double>& latency_ns, double elems) {
    std::vector<double> us;
    us.reserve(latency_ns.size());
    double total_ns = 0.0;
    for (const double ns : latency_ns) {
        us.push_back(ns * 1e-3);
        total_ns += ns;
    }
    out.add("sim_gelems_per_s", ratio(elems, total_ns), "Gelem/s");
    out.add("sim_us_p50", percentile(us, 50.0), "us");
    out.add("sim_us_p90", percentile(us, 90.0), "us");
    // percentile() picks index floor(0.9 (N - 1)); the samples above it
    // are the ones beyond p90.
    const std::size_t n = us.size();
    const std::size_t beyond = n == 0 ? 0 : n - 1 - (n - 1) * 9 / 10;
    out.note("sim_samples", "{\"ops\": " + std::to_string(n) + ", \"beyond_p90\": " +
                                std::to_string(beyond) + "}");
}

/// Host rates of a run's samples (each op of a closed loop, each rate
/// point of the service) on the three host clocks.
struct HostRates {
    std::vector<double> ref;
    std::vector<double> cpu;
    std::vector<double> wall;

    void add(double ops, const OpRecord& cost) {
        ref.push_back(ratio(ops * 1e9, cost.ref_ns));
        cpu.push_back(ratio(ops * 1e9, cost.cpu_ns));
        wall.push_back(ratio(ops * 1e9, cost.wall_ns));
    }

    void append(const HostRates& o) {
        ref.insert(ref.end(), o.ref.begin(), o.ref.end());
        cpu.insert(cpu.end(), o.cpu.begin(), o.cpu.end());
        wall.insert(wall.end(), o.wall.begin(), o.wall.end());
    }
};

/// Host metrics: medians, which keep one-off interference from other
/// processes out.  The CPU and wall rates are context, for reading only.
void emit_host(Outcome& out, const HostRates& rates, const std::vector<double>& setup_s) {
    out.add("host_ops_per_ref_s", median(rates.ref), "1/s");
    out.add("setup_s", median(setup_s), "s");
    out.note("setups", std::to_string(setup_s.size()));
    out.note("host_cpu_ops_per_s", std::to_string(median(rates.cpu)));
    out.note("host_wall_ops_per_s", std::to_string(median(rates.wall)));
    out.note("reference_pass_ms", std::to_string(reference_pass_s() * 1e3));
}

// ---- closed-loop workloads ------------------------------------------------

enum class Lane { plain, traced };

/// A closed-loop workload: one caller issuing a seeded op sequence back to
/// back.  Untraced runs use the plain device only; traced runs run every
/// op on a profiling device and twin some of them on the plain one.
class ClosedLoop {
public:
    virtual ~ClosedLoop() = default;
    /// Ops whose simulated times define the simulated-clock metrics.
    [[nodiscard]] virtual std::size_t prefix() const = 0;
    /// Sorted reference copies, built outside every timed region.
    virtual void build_reference() = 0;
    /// Runs op i.  With `out`, the answer is checked against the reference
    /// and a traced op is folded into `tally`; without it (the warm-up op)
    /// neither happens.
    virtual OpRecord run(std::size_t i, Lane lane, Outcome* out) = 0;
    /// True when every launch runs on one stream, so the phase ledger must
    /// add up to the ops' simulated time.
    [[nodiscard]] virtual bool single_stream() const { return true; }
    /// Checks over all of the run's ops, after the last one.
    virtual void check_run(Outcome& /*out*/) const {}
    /// Per-layer metrics only this workload has.
    virtual void emit_layers(const Options& /*o*/, Outcome& /*out*/) {}

    LayerTally tally;
};

class SingleDevice : public ClosedLoop {
protected:
    explicit SingleDevice(const Options& o)
        : plain_(make_device(o, false)), traced_(o.trace ? make_device(o, true) : nullptr) {}

    simt::Device& device(Lane lane) { return lane == Lane::traced ? *traced_ : *plain_; }

    /// After the call: folds a traced op into the tally (or drops a
    /// warm-up op's profiles).  Returns true when the answer should be
    /// checked.
    bool settle(Lane lane, const DeviceMark& mark, Outcome* out) {
        if (lane == Lane::traced) {
            if (out != nullptr) {
                mark.fold(*traced_, tally);
            } else {
                traced_->clear_profiles();
            }
        }
        return out != nullptr;
    }

    std::unique_ptr<simt::Device> plain_;
    std::unique_ptr<simt::Device> traced_;
};

/// Fig. 10's speed-up: exact over approximate simulated time on the same
/// ranks of the same data, run on `dev` outside the tally.
double fig10_speedup(simt::Device& dev, std::span<const float> data, const Strata& ranks,
                     std::size_t count, Outcome& out) {
    core::SampleSelectConfig ecfg;
    core::SampleSelectConfig acfg;
    acfg.num_buckets = kApproxBuckets;
    double exact = 0.0;
    double approx = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t rank = rank_of(ranks.at(i), data.size());
        ecfg.seed = acfg.seed = ranks.sampler_seed(i);
        auto e = core::try_sample_select<float>(dev, data, rank, ecfg);
        auto a = core::try_approx_select<float>(dev, data, rank, acfg);
        if (!e.ok() || !a.ok()) {
            out.fail("fig10 probe: " + (e.ok() ? a.status() : e.status()).to_message());
            continue;
        }
        exact += e.value().sim_ns;
        approx += a.value().sim_ns;
    }
    return ratio(exact, approx);
}

/// The paper's headline input (Sec. V-A): n = 2^22 floats, uniform over n
/// distinct values, at random ranks; `stream` keeps the two workloads'
/// rank draws apart.
class PaperInput : public SingleDevice {
public:
    [[nodiscard]] std::size_t prefix() const override { return prefix_; }
    void build_reference() override { sorted_ = sorted_copy(data_); }

protected:
    PaperInput(const Options& o, std::uint64_t stream)
        : SingleDevice(o),
          n_(o.quick ? std::size_t{1} << 14 : std::size_t{1} << 22),
          prefix_(o.quick ? 8 : 1000),
          data_(dataset(n_, data::Distribution::uniform_distinct, 1)),
          ranks_(o.seed, stream, prefix_) {}

    std::size_t n_;
    std::size_t prefix_;
    std::vector<float> data_;
    std::vector<float> sorted_;
    Strata ranks_;
};

/// paper_4m: exact SampleSelect at the paper's headline point.
class PaperExact final : public PaperInput {
public:
    explicit PaperExact(const Options& o) : PaperInput(o, 1) {}

    OpRecord run(std::size_t i, Lane lane, Outcome* out) override {
        const std::size_t rank = rank_of(ranks_.at(i), n_);
        core::SampleSelectConfig cfg = cfg_;
        cfg.seed = ranks_.sampler_seed(i);
        simt::Device& dev = device(lane);
        const DeviceMark mark(dev);
        const HostTimer timer;
        auto res = core::try_sample_select<float>(dev, data_, rank, cfg);
        OpRecord op = timer.stop(static_cast<double>(n_));
        if (!settle(lane, mark, out)) return op;
        if (!res.ok()) {
            out->fail("paper_4m rank " + std::to_string(rank) + ": " + res.status().to_message());
            return op;
        }
        const auto& r = res.value();
        op.sim_ns = r.sim_ns;
        if (auto err = check_exact(sorted_, rank, r.value); !err.empty()) {
            out->fail("paper_4m " + err);
        }
        if (lane == Lane::traced) {
            tally.levels += static_cast<double>(r.levels);
            tally.equality_exits += r.equality_exit ? 1.0 : 0.0;
            tally.aux_bytes += static_cast<double>(r.aux_bytes);
            tally.input_bytes += static_cast<double>(n_ * sizeof(float));
        }
        return op;
    }

    void emit_layers(const Options& o, Outcome& out) override {
        out.add("paper.fig10_speedup", fig10_speedup(*plain_, data_, ranks_, 16, out), "x");
        emit_sanitizer_slowdowns(o, out);
    }

private:
    /// Host cost of the two checkers on this workload's ops: the same ops
    /// on a SimTSan-strict and a StreamSan-strict device against a plain
    /// one, interleaved so machine noise hits all three alike.
    void emit_sanitizer_slowdowns(const Options& o, Outcome& out) {
        auto base = make_device(o, false);
        auto san = make_device(o, false);
        auto ssan = make_device(o, false);
        san->set_sanitizer(simt::SanMode::strict);
        ssan->set_stream_sanitizer(simt::StreamSanMode::strict);
        std::array<simt::Device*, 3> devs = {base.get(), san.get(), ssan.get()};
        std::array<double, 3> cpu_ns{};
        const std::size_t ops = o.quick ? 2 : 5;
        for (std::size_t i = 0; i <= ops; ++i) {  // op 0 warms each device up
            const std::size_t rank = rank_of(ranks_.at(i), n_);
            for (std::size_t d = 0; d < devs.size(); ++d) {
                const double cpu0 = process_cpu_s();
                auto res = core::try_sample_select<float>(*devs[d], data_, rank, cfg_);
                if (i > 0) cpu_ns[d] += cpu_ns_since(cpu0);
                if (!res.ok()) {
                    out.fail("sanitized paper_4m op: " + res.status().to_message());
                } else if (auto err = check_exact(sorted_, rank, res.value().value);
                           !err.empty()) {
                    out.fail("sanitized paper_4m " + err);
                }
            }
        }
        out.add("host.san_slowdown_x", ratio(cpu_ns[1], cpu_ns[0]), "x");
        out.add("host.streamsan_slowdown_x", ratio(cpu_ns[2], cpu_ns[0]), "x");
    }

    core::SampleSelectConfig cfg_;
};

/// approx_4m: approximate SampleSelect (one count level, b = 1024) on
/// the paper_4m input.
class ApproxSelect final : public PaperInput {
public:
    explicit ApproxSelect(const Options& o) : PaperInput(o, 2) {
        cfg_.num_buckets = kApproxBuckets;
    }

    OpRecord run(std::size_t i, Lane lane, Outcome* out) override {
        const std::size_t rank = rank_of(ranks_.at(i), n_);
        core::SampleSelectConfig cfg = cfg_;
        cfg.seed = ranks_.sampler_seed(i);
        simt::Device& dev = device(lane);
        const DeviceMark mark(dev);
        const HostTimer timer;
        auto res = core::try_approx_select<float>(dev, data_, rank, cfg);
        OpRecord op = timer.stop(static_cast<double>(n_));
        if (!settle(lane, mark, out)) return op;
        if (!res.ok()) {
            out->fail("approx_4m rank " + std::to_string(rank) + ": " +
                      res.status().to_message());
            return op;
        }
        const auto& r = res.value();
        op.sim_ns = r.sim_ns;
        const std::size_t err = approx_rank_error(sorted_, rank, r.value);
        if (auto msg = check_approx(n_, rank, err, r.max_bucket); !msg.empty()) {
            out->fail("approx_4m " + msg);
        }
        if (lane == Lane::traced) tally.levels += 1.0;  // one bucketing level
        checked_ops_ += 1.0;
        err_sum_ += static_cast<double>(err);
        max_bucket_sum_ += static_cast<double>(r.max_bucket);
        return op;
    }

    void check_run(Outcome& out) const override {
        if (max_bucket_over_mean() > kApproxMaxBucketFactor) {
            out.fail("approx_4m: the largest bucket averages " +
                     std::to_string(max_bucket_over_mean()) + " x n/b over the run, above " +
                     std::to_string(kApproxMaxBucketFactor));
        }
    }

    void emit_layers(const Options& /*o*/, Outcome& out) override {
        out.add("approx.rank_err_ppm",
                ratio(err_sum_, checked_ops_) / static_cast<double>(n_) * 1e6, "ppm");
        out.add("approx.max_bucket_over_mean", max_bucket_over_mean(), "x");
        out.add("paper.fig10_speedup", fig10_speedup(*plain_, data_, ranks_, 16, out), "x");
    }

private:
    [[nodiscard]] double max_bucket_over_mean() const {
        return ratio(max_bucket_sum_, checked_ops_) / (static_cast<double>(n_) / kApproxBuckets);
    }

    core::SampleSelectConfig cfg_;
    double checked_ops_ = 0.0;
    double err_sum_ = 0.0;
    double max_bucket_sum_ = 0.0;
};

/// topk_skewed_1m: planner-routed top-k over skewed and duplicate-heavy
/// inputs with k log-uniform in [1, n/8].
class TopKSkewed final : public SingleDevice {
public:
    explicit TopKSkewed(const Options& o)
        : SingleDevice(o),
          n_(o.quick ? std::size_t{1} << 13 : std::size_t{1} << 20),
          prefix_(o.quick ? 12 : 600),
          strata_{Strata(o.seed, 10, prefix_ / 3), Strata(o.seed, 11, prefix_ / 3),
                  Strata(o.seed, 12, prefix_ / 3)} {
        // The radix descent on the 16-value set needs as many passes as the
        // values share leading digits: independently drawn sets would
        // swing that class's time by ~30%.
        const data::Distribution dists[kClasses] = {data::Distribution::zipf,
                                                    data::Distribution::uniform_distinct,
                                                    data::Distribution::lognormal};
        for (std::size_t c = 0; c < kClasses; ++c) {
            data_[c] = dataset(n_, dists[c], 10 + c, c == 1 ? 16 : 0);
        }
    }

    [[nodiscard]] std::size_t prefix() const override { return prefix_; }
    void build_reference() override {
        for (std::size_t c = 0; c < kClasses; ++c) sorted_[c] = sorted_copy(data_[c]);
    }

    OpRecord run(std::size_t i, Lane lane, Outcome* out) override {
        const std::size_t c = i % kClasses;
        const std::size_t k = k_of(strata_[c].at(i / kClasses));
        core::SampleSelectConfig cfg = cfg_;
        cfg.seed = strata_[c].sampler_seed(i / kClasses);
        const std::span<const float> input = data_[c];
        simt::Device& dev = device(lane);
        const DeviceMark mark(dev);
        const HostTimer timer;
        auto res = core::try_topk_largest<float>(dev, input, k, cfg);
        OpRecord op = timer.stop(static_cast<double>(n_));
        if (!settle(lane, mark, out)) return op;
        if (!res.ok()) {
            out->fail("topk_skewed_1m k " + std::to_string(k) + ": " + res.status().to_message());
            return op;
        }
        auto& r = res.value();
        op.sim_ns = r.sim_ns;
        if (lane == Lane::traced) {
            tally.levels += static_cast<double>(r.levels);
            const auto p0 = Clock::now();
            const core::DistributionHints hints = core::probe_distribution<float>(input);
            tally.probe_ns.push_back(ns_since(p0));
            if (hints.probe_size == 0) out->fail("topk_skewed_1m: empty planner probe");
        }
        if (auto err = check_topk(sorted_[c], k, r.threshold, std::move(r.elements));
            !err.empty()) {
            out->fail("topk_skewed_1m " + err);
        }
        return op;
    }

private:
    static constexpr std::size_t kClasses = 3;

    /// Log-uniform k in [1, n/8].
    [[nodiscard]] std::size_t k_of(double u) const {
        const double kmax = static_cast<double>(n_ / 8);
        const auto k = static_cast<std::size_t>(std::exp(u * std::log(kmax)));
        return std::clamp<std::size_t>(k, 1, n_ / 8);
    }

    std::size_t n_;
    std::size_t prefix_;
    std::array<std::vector<float>, kClasses> data_;
    std::array<std::vector<float>, kClasses> sorted_;
    std::array<Strata, kClasses> strata_;
    core::SampleSelectConfig cfg_;
};

/// sharded_512k: exact sharded selection over a 4-device group whose
/// modeled capacity forces 8 shards.
class Sharded final : public ClosedLoop {
public:
    explicit Sharded(const Options& o)
        : n_(o.quick ? std::size_t{1} << 15 : std::size_t{1} << 19),
          prefix_(o.quick ? 3 : 100),
          capacity_(o.quick ? std::size_t{64} << 10 : std::size_t{1} << 20),
          data_(dataset(n_, data::Distribution::uniform_real, 20)),
          ranks_(o.seed, 20, prefix_),
          plain_(make_group(o, false)),
          traced_(o.trace ? make_group(o, true) : nullptr) {}

    [[nodiscard]] std::size_t prefix() const override { return prefix_; }
    void build_reference() override { sorted_ = sorted_copy(data_); }
    [[nodiscard]] bool single_stream() const override { return false; }

    OpRecord run(std::size_t i, Lane lane, Outcome* out) override {
        const std::size_t rank = rank_of(ranks_.at(i), n_);
        simt::DeviceGroup& g = lane == Lane::traced ? *traced_ : *plain_;
        std::vector<DeviceMark> marks;
        for (int d = 0; d < g.size(); ++d) marks.emplace_back(g.device(d));
        const std::uint64_t transfers0 = g.transfer_count();
        const std::uint64_t bytes0 = g.total_link_bytes();
        const HostTimer timer;
        auto res = core::try_sharded_select<float>(g, data_, rank, cfg_);
        OpRecord op = timer.stop(static_cast<double>(n_));
        const bool fold = lane == Lane::traced && out != nullptr;
        double busy = 0.0;
        for (int d = 0; d < g.size(); ++d) {
            if (fold) {
                busy += busy_ns(g.device(d).profiles());
                marks[static_cast<std::size_t>(d)].fold(g.device(d), tally);
            } else {
                g.device(d).clear_profiles();
            }
        }
        if (out == nullptr) return op;
        if (!res.ok()) {
            out->fail("sharded_512k rank " + std::to_string(rank) + ": " +
                      res.status().to_message());
            return op;
        }
        const auto& r = res.value();
        const core::ShardAccounting& a = r.acct;
        op.sim_ns = a.sim_ns;
        if (auto err = check_exact(sorted_, rank, r.value); !err.empty()) {
            out->fail("sharded_512k " + err);
        }
        if (a.shards < 8 || a.max_bucket > a.skew_bound || a.max_shard_aux_bytes > capacity_ ||
            a.link_bytes == 0) {
            out->fail("sharded_512k rank " + std::to_string(rank) + ": shards " +
                      std::to_string(a.shards) + ", max_bucket " + std::to_string(a.max_bucket) +
                      " / skew_bound " + std::to_string(a.skew_bound) + ", aux " +
                      std::to_string(a.max_shard_aux_bytes) + " / capacity " +
                      std::to_string(capacity_) + ", link bytes " +
                      std::to_string(a.link_bytes));
        }
        if (fold) {
            const std::uint64_t transfers = g.transfer_count() - transfers0;
            const std::uint64_t bytes = g.total_link_bytes() - bytes0;
            const simt::LinkSpec& link = g.spec().link;
            tally.ledger.add_link_wire(static_cast<double>(transfers) * link.latency_ns +
                                       ratio(static_cast<double>(bytes), link.bandwidth_gbs));
            tally.equality_exits += r.equality_exit ? 1.0 : 0.0;
            launches_ += static_cast<double>(a.launches);
            link_bytes_ += static_cast<double>(a.link_bytes);
            transfers_ += static_cast<double>(transfers);
            busy_frac_sum_ += ratio(busy, static_cast<double>(g.size()) * a.sim_ns);
            skew_sum_ += ratio(static_cast<double>(a.max_bucket),
                               static_cast<double>(a.skew_bound));
            aux_frac_max_ = std::max(aux_frac_max_,
                                     ratio(static_cast<double>(a.max_shard_aux_bytes),
                                           static_cast<double>(capacity_)));
        }
        return op;
    }

    void emit_layers(const Options& /*o*/, Outcome& out) override {
        const double ops = tally.ops;
        out.add("shard.launches_per_op", ratio(launches_, ops), "count");
        out.add("shard.link_bytes_per_op", ratio(link_bytes_, ops), "B");
        out.add("shard.transfers_per_op", ratio(transfers_, ops), "count");
        out.add("shard.device_busy_frac", ratio(busy_frac_sum_, ops), "frac");
        out.add("shard.skew_ratio", ratio(skew_sum_, ops), "frac");
        out.add("shard.aux_frac_of_capacity", aux_frac_max_, "frac");
    }

private:
    [[nodiscard]] std::unique_ptr<simt::DeviceGroup> make_group(const Options& o,
                                                                bool profiles) const {
        simt::TopologySpec spec;
        spec.num_devices = 4;
        spec.arch = simt::arch_v100();
        spec.mem_capacity_bytes = capacity_;
        spec.device_opts = {.host_workers = o.workers, .record_profiles = profiles};
        return std::make_unique<simt::DeviceGroup>(spec);
    }

    std::size_t n_;
    std::size_t prefix_;
    std::size_t capacity_;
    std::vector<float> data_;
    std::vector<float> sorted_;
    Strata ranks_;
    core::ShardSelectConfig cfg_;
    std::unique_ptr<simt::DeviceGroup> plain_;
    std::unique_ptr<simt::DeviceGroup> traced_;
    double launches_ = 0.0;
    double link_bytes_ = 0.0;
    double transfers_ = 0.0;
    double busy_frac_sum_ = 0.0;
    double skew_sum_ = 0.0;
    double aux_frac_max_ = 0.0;
};

template <class W>
void drive_closed_loop(const Options& o, Outcome& out) {
    std::unique_ptr<W> w;
    const std::vector<double> setup_s = set_up(w, o.quick, [&] {
        auto fresh = std::make_unique<W>(o);
        (void)fresh->run(0, Lane::plain, nullptr);  // warm-up op
        return fresh;
    });
    if (o.trace) (void)w->run(0, Lane::traced, nullptr);
    w->build_reference();

    if (!o.trace) {
        // The prefix sets the simulated metrics; ops past it replay the
        // prefix until the run's seconds are up and only add host samples.
        std::vector<double> sim_ns;
        HostRates rates;
        double elems = 0.0;
        const auto t0 = Clock::now();
        for (std::size_t i = 0;
             i < w->prefix() || (!o.quick && seconds_since(t0) < o.seconds); ++i) {
            const OpRecord op = w->run(i, Lane::plain, &out);
            ++out.attempted;
            rates.add(1.0, op);
            if (i < w->prefix()) {
                sim_ns.push_back(op.sim_ns);
                elems += op.elems;
            }
        }
        w->check_run(out);
        emit_sim(out, sim_ns, elems);
        emit_host(out, rates, setup_s);
        return;
    }

    // The first ops of the prefix run untraced as one block before the
    // traced pass, so trace.overhead_x compares the same ops, each device
    // running back to back with warm caches.
    LayerTally& t = w->tally;
    const std::size_t twins = std::max<std::size_t>(1, w->prefix() / kTwinShare);
    for (std::size_t i = 0; i < twins; ++i) {
        t.twin_plain_ns += w->run(i, Lane::plain, &out).cpu_ns;
        ++out.attempted;
    }
    for (std::size_t i = 0; i < w->prefix(); ++i) {
        const OpRecord op = w->run(i, Lane::traced, &out);
        ++out.attempted;
        t.ops += 1.0;
        t.elems += op.elems;
        t.cpu_ns += op.cpu_ns;
        t.sim_ns += op.sim_ns;
        if (i < twins) t.twin_traced_ns += op.cpu_ns;
    }
    w->check_run(out);
    // On one stream the phases partition the simulated time exactly.
    const double gap = std::abs(t.ledger.total_ns() - t.sim_ns);
    if (w->single_stream() && gap > 1e-3 * t.sim_ns) {
        out.fail("phase ledger sums to " + std::to_string(t.ledger.total_ns()) +
                 " ns but the ops took " + std::to_string(t.sim_ns) + " simulated ns");
    }
    out.note("ledger_total_over_sim", std::to_string(ratio(t.ledger.total_ns(), t.sim_ns)));
    t.emit(out);
    w->emit_layers(o, out);
}

// ---- service_64k: open-loop load against SelectServer ---------------------

/// SLO of max_rps_at_slo: p99 latency limit [ns].
constexpr double kSloP99Ns = 500e3;

class Service {
public:
    explicit Service(const Options& o)
        : n_(o.quick ? std::size_t{1} << 12 : std::size_t{1} << 16),
          heavy_requests_(o.quick ? 200 : 16000),
          point_requests_(o.quick ? 200 : 2000),
          probe_requests_(o.quick ? 100 : 1000) {
        for (std::size_t d = 0; d < kDatasets; ++d) {
            data_[d] = dataset(n_, data::Distribution::uniform_real, 30 + d);
        }
    }

    void build_reference() {
        for (std::size_t d = 0; d < kDatasets; ++d) sorted_[d] = sorted_copy(data_[d]);
    }

    /// One rate point's outcome.
    struct Point {
        double rate_rps = 0.0;
        /// Every offered request's latency from its due time; +inf unless
        /// it was answered.
        std::vector<double> latency_ns;
        std::vector<double> queue_ns;
        std::vector<double> service_ns;
        double elems = 0.0;
        /// Host rates of driving the point (submit, pump, drain), one
        /// sample per kHostChunk requests, and its total host CPU time.
        HostRates host;
        double cpu_ns = 0.0;
        std::size_t not_ok = 0;
        double first_arrival_ns = 0.0;
        double last_finish_ns = 0.0;
        std::size_t rounds = 0;
        std::uint64_t metrics_bytes = 0;
        std::vector<double> submit_ns;
        std::vector<double> pump_ns;
        double overlap_x = 0.0;
        double streams_used = 0.0;

        [[nodiscard]] bool meets_slo() const {
            const double makespan_s = (last_finish_ns - first_arrival_ns) * 1e-9;
            const double done = static_cast<double>(latency_ns.size() - not_ok);
            return not_ok == 0 && percentile(latency_ns, 99.0) <= kSloP99Ns &&
                   ratio(done, makespan_s) >= 0.95 * rate_rps;
        }
    };

    /// Offers `requests` Poisson arrivals at `rate_rps` to a fresh device
    /// and server.  `stream` selects the request draws, stratified over the
    /// point (the interarrival gaps, the request mix and the ranks each
    /// cover their range evenly), and independent of the rate, so probes of
    /// one stream at different rates differ only in their arrival spacing.
    /// A traced point records host timers and folds the device's profiles
    /// into `tally`.
    Point run_point(const Options& o, double rate_rps, std::size_t requests, std::uint64_t stream,
                    bool traced, Outcome* out, LayerTally* tally = nullptr) {
        // The arrival gaps and the request mix replay one fixed trace per
        // stream; the seed draws the ranks.  Independent traces of 8000
        // requests move the latency percentiles by ~4% (queueing), which
        // would swamp the simulated-clock bounds.
        const Strata gaps(kTraceSeed, stream * 4, requests);
        const Strata kinds(kTraceSeed, stream * 4 + 1, requests);
        const Strata ranks(o.seed, stream * 4 + 2, requests);
        auto dev = make_device(o, traced);
        server::SelectServer srv(*dev, server::ServerConfig{});
        const DeviceMark mark(*dev);
        Point pt;
        pt.rate_rps = rate_rps;
        std::vector<server::Request> reqs;
        std::vector<std::future<server::Response>> futs;
        reqs.reserve(requests);
        futs.reserve(requests);
        double arrival = srv.now_ns();
        HostTimer timer;
        std::size_t chunk_start = 0;
        for (std::size_t i = 0; i < requests; ++i) {
            arrival += -std::log1p(-gaps.at(i)) / rate_rps * 1e9;
            if (i == 0) pt.first_arrival_ns = arrival;
            for (;;) {  // open loop: let the server catch up to this arrival, no further
                const auto p0 = Clock::now();
                const bool ran = srv.pump_until(arrival);
                if (!ran) break;
                if (traced) pt.pump_ns.push_back(ns_since(p0));
            }
            reqs.push_back(make_request(kinds.at(i), ranks.at(i), i, arrival));
            const auto s0 = Clock::now();
            futs.push_back(srv.submit(reqs.back()));
            if (traced) pt.submit_ns.push_back(ns_since(s0));
            if (i + 1 == requests) srv.drain();
            if (i + 1 - chunk_start == kHostChunk || i + 1 == requests) {
                const OpRecord cost = timer.stop(0.0);
                pt.host.add(static_cast<double>(i + 1 - chunk_start), cost);
                pt.cpu_ns += cost.cpu_ns;
                chunk_start = i + 1;
                timer = HostTimer();
            }
        }
        pt.metrics_bytes = srv.metrics().latencies_ns.size() * sizeof(double);

        std::vector<std::pair<double, double>> rounds;  // (start, finish) of each dispatch round
        for (std::size_t i = 0; i < requests; ++i) {
            const server::Response r = futs[i].get();
            pt.last_finish_ns = std::max(pt.last_finish_ns, r.finish_ns);
            const std::string err = check(reqs[i], r);
            if (!err.empty()) {
                ++pt.not_ok;
                pt.latency_ns.push_back(std::numeric_limits<double>::infinity());
                if (out != nullptr) out->fail("service_64k " + err);
                continue;
            }
            pt.latency_ns.push_back(r.latency_ns());
            pt.queue_ns.push_back(r.queue_delay_ns());
            pt.service_ns.push_back(r.finish_ns - r.start_ns);
            pt.elems += static_cast<double>(reqs[i].data.size());
            rounds.emplace_back(r.start_ns, r.finish_ns);
        }
        std::sort(rounds.begin(), rounds.end());
        rounds.erase(std::unique(rounds.begin(), rounds.end()), rounds.end());
        pt.rounds = rounds.size();
        if (tally != nullptr) {
            summarize_rounds(dev->profiles(), rounds, pt);
            mark.fold(*dev, *tally);
        }
        return pt;
    }

    /// Requests of the heavy point that sets the simulated metrics.
    [[nodiscard]] std::size_t heavy_requests() const { return heavy_requests_; }
    /// Requests of every other point.
    [[nodiscard]] std::size_t point_requests() const { return point_requests_; }
    [[nodiscard]] std::size_t probe_requests() const { return probe_requests_; }

private:
    static constexpr std::size_t kDatasets = 4;
    static constexpr int kTenants = 4;
    static constexpr std::uint64_t kTraceSeed = 0;
    /// Requests per host-rate sample; the reference is re-timed between
    /// samples, so it follows the machine's speed through a long point.
    static constexpr std::size_t kHostChunk = 500;

    /// Request i: 60% select, 10% each of top-k, argselect, quantile and
    /// approximate select (by `roll`), tenants and datasets round-robin,
    /// no deadline.
    server::Request make_request(double roll, double rank_u, std::size_t i,
                                 double arrival_ns) const {
        server::Request req;
        req.data = data_[i % kDatasets];
        req.rank = rank_of(rank_u, n_);
        req.tenant = static_cast<int>(i % kTenants);
        req.arrival_ns = arrival_ns;
        if (roll < 0.6) {
            req.kind = server::RequestKind::select;
        } else if (roll < 0.7) {
            req.kind = server::RequestKind::topk;
            req.k = 1 + req.rank % 64;
        } else if (roll < 0.8) {
            req.kind = server::RequestKind::argselect;
        } else if (roll < 0.9) {
            req.kind = server::RequestKind::quantile;
            req.q = static_cast<double>(req.rank) / static_cast<double>(n_);
        } else {
            req.kind = server::RequestKind::select;
            req.approx = true;
        }
        return req;
    }

    /// Checks one answer against the reference of the request's dataset.
    [[nodiscard]] std::string check(const server::Request& req, const server::Response& r) const {
        const std::string what = std::string(server::request_kind_name(req.kind)) +
                                 (req.approx ? " (approx)" : "");
        if (!r.status.ok()) return what + ": " + r.status.to_message();
        const std::span<const float> sorted = sorted_[dataset_of(req.data)];
        std::string err;
        switch (req.kind) {
            case server::RequestKind::select:
                if (req.approx) {
                    const std::size_t e = approx_rank_error(sorted, req.rank, r.value);
                    err = check_approx(sorted.size(), req.rank, e, 2 * r.rank_error_bound + 1);
                } else {
                    err = check_exact(sorted, req.rank, r.value);
                }
                break;
            case server::RequestKind::quantile:
                err = check_exact(sorted,
                                  core::quantile_rank(sorted.size(), req.q, req.quantile_method),
                                  r.value);
                break;
            case server::RequestKind::topk:
                err = check_topk(sorted, req.k, r.value, r.values);
                break;
            case server::RequestKind::argselect:
                err = check_exact(sorted, req.rank, r.value);
                if (err.empty() && (r.index >= req.data.size() ||
                                    !check_exact(sorted, req.rank, req.data[r.index]).empty())) {
                    err = "argselect index " + std::to_string(r.index) + " does not hold the key";
                }
                break;
        }
        return err.empty() ? err : what + " " + err;
    }

    [[nodiscard]] std::size_t dataset_of(std::span<const float> s) const {
        for (std::size_t d = 0; d < kDatasets; ++d) {
            if (s.data() == data_[d].data()) return d;
        }
        return 0;
    }

    /// Batch overlap per dispatch round: launch busy time over round wall
    /// time, and distinct streams the round's launches used.
    static void summarize_rounds(const std::vector<simt::KernelProfile>& profiles,
                                 const std::vector<std::pair<double, double>>& rounds, Point& pt) {
        if (rounds.empty()) return;
        double busy = 0.0;
        double wall = 0.0;
        std::vector<std::vector<int>> streams(rounds.size());
        for (const simt::KernelProfile& p : profiles) {
            auto it = std::upper_bound(rounds.begin(), rounds.end(),
                                       std::make_pair(p.start_ns,
                                                      std::numeric_limits<double>::infinity()));
            if (it == rounds.begin()) continue;
            const auto r = static_cast<std::size_t>(std::prev(it) - rounds.begin());
            if (p.start_ns >= rounds[r].second) continue;
            busy += p.sim_ns;
            auto& s = streams[r];
            if (std::find(s.begin(), s.end(), p.stream) == s.end()) s.push_back(p.stream);
        }
        double used = 0.0;
        for (std::size_t r = 0; r < rounds.size(); ++r) {
            wall += rounds[r].second - rounds[r].first;
            used += static_cast<double>(streams[r].size());
        }
        pt.overlap_x = ratio(busy, wall);
        pt.streams_used = used / static_cast<double>(rounds.size());
    }

    std::size_t n_;
    std::size_t heavy_requests_;
    std::size_t point_requests_;
    std::size_t probe_requests_;
    std::array<std::vector<float>, kDatasets> data_;
    std::array<std::vector<float>, kDatasets> sorted_;
};

constexpr double kLightRps = 8000.0;
constexpr double kHeavyRps = 32000.0;

std::vector<double> to_us(std::vector<double> ns) {
    for (double& v : ns) v *= 1e-3;
    return ns;
}

/// Highest offered rate in [8k, 64k] rps that meets the SLO, by geometric
/// bisection to 2% resolution (0 when even 8k misses it).
double max_rps_at_slo(const Options& o, Service& svc, Outcome& out) {
    double lo = kLightRps;
    double hi = 64000.0;
    const std::uint64_t stream = 50;
    if (!svc.run_point(o, lo, svc.probe_requests(), stream, false, nullptr).meets_slo()) return 0.0;
    if (svc.run_point(o, hi, svc.probe_requests(), stream, false, nullptr).meets_slo()) return hi;
    while (hi / lo > 1.02) {
        const double mid = std::sqrt(lo * hi);
        (svc.run_point(o, mid, svc.probe_requests(), stream, false, nullptr).meets_slo() ? lo
                                                                                          : hi) =
            mid;
    }
    out.note("slo", "{\"p99_us\": " + std::to_string(kSloP99Ns * 1e-3) +
                        ", \"probe_requests\": " + std::to_string(svc.probe_requests()) + "}");
    return lo;
}

void drive_service(const Options& o, Outcome& out) {
    std::unique_ptr<Service> svc;
    const std::vector<double> setup_s = set_up(svc, o.quick, [&] {
        auto fresh = std::make_unique<Service>(o);
        (void)fresh->run_point(o, kLightRps, 1, 0, false, nullptr);  // warm-up request
        return fresh;
    });
    svc->build_reference();
    out.note("service_timing",
             "\"each request is timed from its pre-stamped due time (arrival_ns) on the "
             "simulated clock, so the generator is never late\"");

    if (!o.trace) {
        // The heavy point sets the simulated metrics; further heavy points
        // of fresh draws fill the run's seconds and only add host samples.
        const auto t0 = Clock::now();
        const Service::Point heavy =
            svc->run_point(o, kHeavyRps, svc->heavy_requests(), 2, false, &out);
        std::size_t requests = heavy.latency_ns.size();
        HostRates rates = heavy.host;
        for (std::uint64_t stream = 3; !o.quick && seconds_since(t0) < o.seconds; ++stream) {
            const Service::Point more =
                svc->run_point(o, kHeavyRps, svc->point_requests(), stream, false, &out);
            requests += more.latency_ns.size();
            rates.append(more.host);
        }
        out.attempted = requests;
        emit_sim(out, heavy.latency_ns, heavy.elems);
        emit_host(out, rates, setup_s);
        return;
    }

    // The layer tally describes the heavy point; its untraced twin gives
    // trace.overhead_x.
    LayerTally t;
    const Service::Point light =
        svc->run_point(o, kLightRps, svc->point_requests(), 1, true, &out);
    const Service::Point heavy =
        svc->run_point(o, kHeavyRps, svc->heavy_requests(), 2, true, &out, &t);
    const Service::Point twin =
        svc->run_point(o, kHeavyRps, svc->heavy_requests(), 2, false, &out);
    out.attempted = light.latency_ns.size() + heavy.latency_ns.size() + twin.latency_ns.size();
    t.ops = static_cast<double>(heavy.latency_ns.size());
    t.elems = heavy.elems;
    t.cpu_ns = heavy.cpu_ns;
    t.twin_traced_ns = heavy.cpu_ns;
    t.twin_plain_ns = twin.cpu_ns;
    t.emit(out);

    out.add("server.latency_us_p50.light", percentile(light.latency_ns, 50.0) * 1e-3, "us");
    out.add("server.latency_us_p99.light", percentile(light.latency_ns, 99.0) * 1e-3, "us");
    out.add("server.latency_us_p99.heavy", percentile(heavy.latency_ns, 99.0) * 1e-3, "us");
    out.add("server.queue_wait_us_p50", percentile(to_us(heavy.queue_ns), 50.0), "us");
    out.add("server.queue_wait_us_p99", percentile(to_us(heavy.queue_ns), 99.0), "us");
    out.add("server.service_us_p50", percentile(to_us(heavy.service_ns), 50.0), "us");
    out.add("server.round_size_mean",
            ratio(static_cast<double>(heavy.latency_ns.size() - heavy.not_ok),
                  static_cast<double>(heavy.rounds)),
            "count");
    out.add("server.submit_host_us_p50", percentile(heavy.submit_ns, 50.0) * 1e-3, "us");
    out.add("server.pump_host_us_p50", percentile(heavy.pump_ns, 50.0) * 1e-3, "us");
    out.add("server.metrics_bytes", static_cast<double>(heavy.metrics_bytes), "B");
    out.add("core.batch.overlap_x", heavy.overlap_x, "x");
    out.add("core.batch.streams_used", heavy.streams_used, "count");
    out.add("server.max_rps_at_slo", max_rps_at_slo(o, *svc, out), "1/s");
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {"paper_4m", "approx_4m", "topk_skewed_1m",
                                                   "service_64k", "sharded_512k"};
    return names;
}

bool run_workload(const Options& opts, Outcome& out) {
    if (opts.workload == "paper_4m") {
        drive_closed_loop<PaperExact>(opts, out);
    } else if (opts.workload == "approx_4m") {
        drive_closed_loop<ApproxSelect>(opts, out);
    } else if (opts.workload == "topk_skewed_1m") {
        drive_closed_loop<TopKSkewed>(opts, out);
    } else if (opts.workload == "service_64k") {
        drive_service(opts, out);
    } else if (opts.workload == "sharded_512k") {
        drive_closed_loop<Sharded>(opts, out);
    } else {
        return false;
    }
    return true;
}

}  // namespace gpusel::bench
