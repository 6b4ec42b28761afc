// Fig. 8 (left & middle panels): throughput of sample-s / sample-g /
// quick-s / quick-g over the input size, single and double precision, on
// both architecture presets.  One table per (arch, precision) panel; each
// row is one n, each column one algorithm variant, cells are
// elements-per-second (mean over the repetitions, +/- sigma in a second
// block).

#include <iostream>
#include <string>

#include "baselines/quickselect.hpp"
#include "bench_util/runner.hpp"
#include "bench_util/table.hpp"
#include "core/sample_select.hpp"
#include "data/distributions.hpp"

namespace {

using namespace gpusel;

template <typename T>
double run_sample(const simt::ArchSpec& arch, simt::AtomicSpace space, std::size_t n,
                  std::uint64_t rep) {
    simt::Device dev(arch, {.record_profiles = false});
    const auto data = data::generate<T>(
        {.n = n, .dist = data::Distribution::uniform_distinct, .seed = rep + 1});
    core::SampleSelectConfig cfg;
    cfg.num_buckets = 256;
    cfg.atomic_space = space;
    cfg.seed = rep * 7 + 3;
    return core::try_sample_select<T>(dev, data, data::random_rank(n, rep), cfg).value().sim_ns;
}

template <typename T>
double run_quick(const simt::ArchSpec& arch, simt::AtomicSpace space, std::size_t n,
                 std::uint64_t rep) {
    simt::Device dev(arch, {.record_profiles = false});
    const auto data = data::generate<T>(
        {.n = n, .dist = data::Distribution::uniform_distinct, .seed = rep + 1});
    core::QuickSelectConfig cfg;
    cfg.atomic_space = space;
    cfg.seed = rep * 7 + 3;
    return baselines::quick_select<T>(dev, data, data::random_rank(n, rep), cfg).sim_ns;
}

template <typename T>
void panel(const simt::ArchSpec& arch, const char* precision, const bench::Scale& scale) {
    bench::Table tp(std::string("Fig. 8: ") + arch.name + ", " + precision +
                    " -- throughput [elements/s]");
    tp.set_header({"n", "sample-s", "sample-g", "quick-s", "quick-g"});
    bench::Table sd(std::string("Fig. 8: ") + arch.name + ", " + precision +
                    " -- relative stddev of runtime");
    sd.set_header({"n", "sample-s", "sample-g", "quick-s", "quick-g"});

    for (const std::size_t n : scale.sizes()) {
        std::vector<std::string> tp_row{std::to_string(n)};
        std::vector<std::string> sd_row{std::to_string(n)};
        for (int variant = 0; variant < 4; ++variant) {
            const bool is_sample = variant < 2;
            const auto space =
                variant % 2 == 0 ? simt::AtomicSpace::shared : simt::AtomicSpace::global;
            const auto s = bench::repeat_ns(scale.reps, [&](std::size_t rep) {
                return is_sample ? run_sample<T>(arch, space, n, rep)
                                 : run_quick<T>(arch, space, n, rep);
            });
            tp_row.push_back(bench::fmt_eng(bench::throughput(n, s.mean)));
            sd_row.push_back(bench::fmt_pct(s.mean > 0 ? s.stddev / s.mean : 0.0, 1));
        }
        tp.add_row(std::move(tp_row));
        sd.add_row(std::move(sd_row));
    }
    tp.print(std::cout);
    sd.print(std::cout);
}

}  // namespace

int main() {
    const auto scale = gpusel::bench::Scale::from_env();
    std::cout << "Fig. 8 reproduction: selection throughput vs input size\n"
              << "(suffix -s: shared-memory atomics, -g: global-memory atomics;\n"
              << " uniform all-distinct input, random target rank, " << scale.reps
              << " repetitions)\n\n";
    for (const char* arch : {"K20Xm", "V100"}) {
        panel<float>(gpusel::simt::preset(arch), "single precision", scale);
        panel<double>(gpusel::simt::preset(arch), "double precision", scale);
    }
    return 0;
}
