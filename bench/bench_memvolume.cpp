// Sec. IV-A ablation: memory access volume and auxiliary storage.
// SampleSelect claims (1+eps)n element reads/writes and <= n/4 auxiliary
// storage (single precision; half for double); QuickSelect ~2n with ~n/2.
// We report the exact measured byte volumes from the simulator's counters.

#include <iostream>

#include "baselines/quickselect.hpp"
#include "bench_util/runner.hpp"
#include "bench_util/table.hpp"
#include "core/approx_select.hpp"
#include "core/sample_select.hpp"
#include "data/distributions.hpp"

namespace {

using namespace gpusel;

struct Volume {
    double traffic_elem_units;
    double aux_rel;
    double atomics_per_elem;
};

template <typename T>
Volume sample_vol(std::size_t n) {
    simt::Device dev(simt::arch_v100(), {.record_profiles = false});
    const auto data =
        data::generate<T>({.n = n, .dist = data::Distribution::uniform_real, .seed = 3});
    core::SampleSelectConfig cfg;
    const auto r = core::try_sample_select<T>(dev, data, n / 2, cfg).value();
    const auto c = dev.counter_totals();
    return {static_cast<double>(c.total_global_bytes()) / sizeof(T) / static_cast<double>(n),
            static_cast<double>(r.aux_bytes) / static_cast<double>(n * sizeof(T)),
            static_cast<double>(c.total_atomic_ops()) / static_cast<double>(n)};
}

template <typename T>
Volume quick_vol(std::size_t n) {
    simt::Device dev(simt::arch_v100(), {.record_profiles = false});
    const auto data =
        data::generate<T>({.n = n, .dist = data::Distribution::uniform_real, .seed = 3});
    const auto r = baselines::quick_select<T>(dev, data, n / 2, {});
    const auto c = dev.counter_totals();
    return {static_cast<double>(c.total_global_bytes()) / sizeof(T) / static_cast<double>(n),
            static_cast<double>(r.aux_bytes) / static_cast<double>(n * sizeof(T)),
            static_cast<double>(c.total_atomic_ops()) / static_cast<double>(n)};
}

template <typename T>
Volume approx_vol(std::size_t n) {
    simt::Device dev(simt::arch_v100(), {.record_profiles = false});
    const auto data =
        data::generate<T>({.n = n, .dist = data::Distribution::uniform_real, .seed = 3});
    core::SampleSelectConfig cfg;
    cfg.num_buckets = 1024;
    auto dbuf = dev.alloc<T>(n);
    std::copy(data.begin(), data.end(), dbuf.data());
    dev.tracker().set_baseline();
    const std::size_t ranks[] = {n / 2};
    (void)core::try_approx_multi_select<T>(dev, std::span<const T>(dbuf.span()), ranks, cfg)
        .value();
    const auto c = dev.counter_totals();
    return {static_cast<double>(c.total_global_bytes()) / sizeof(T) / static_cast<double>(n),
            static_cast<double>(dev.tracker().peak_above_baseline()) /
                static_cast<double>(n * sizeof(T)),
            static_cast<double>(c.total_atomic_ops()) / static_cast<double>(n)};
}

void emit(bench::Table& t, const char* name, const Volume& v) {
    t.add_row({name, bench::fmt_fixed(v.traffic_elem_units, 3), bench::fmt_fixed(v.aux_rel, 3),
               bench::fmt_fixed(v.atomics_per_elem, 3)});
}

}  // namespace

int main() {
    const auto scale = gpusel::bench::Scale::from_env();
    const std::size_t n = std::size_t{1} << scale.max_log_n;
    std::cout << "Sec. IV-A reproduction: measured memory volume & auxiliary storage (n = " << n
              << ")\n(traffic in element-size units per input element; aux relative to the\n"
              << " input array size; paper claims: SampleSelect (1+eps)n & <= n/4 aux,\n"
              << " QuickSelect ~2n & ~n/2 aux)\n\n";

    bench::Table t("measured volumes");
    t.set_header({"algorithm", "traffic [elem units / elem]", "aux / input", "atomics / elem"});
    emit(t, "SampleSelect exact (float)", sample_vol<float>(n));
    emit(t, "SampleSelect exact (double)", sample_vol<double>(n));
    emit(t, "SampleSelect approx b=1024 (float)", approx_vol<float>(n));
    emit(t, "QuickSelect (float)", quick_vol<float>(n));
    emit(t, "QuickSelect (double)", quick_vol<double>(n));
    t.print(std::cout);
    return 0;
}
