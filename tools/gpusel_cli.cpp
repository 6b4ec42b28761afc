// gpusel_cli -- run any selection algorithm of the library from the command
// line on a synthetic dataset, report the result, simulated performance and
// (optionally) a kernel timeline or chrome://tracing JSON.
//
// Examples:
//   gpusel_cli --algo sample --n 1048576 --dist uniform_real --rank 524288
//   gpusel_cli --algo approx --buckets 1024 --quantile 0.99 --timeline
//   gpusel_cli --algo quick --arch K20Xm --atomics global --n 4194304
//   gpusel_cli --algo topk --k 100 --dist zipf --trace trace.json
//
// Run with --help for the full option list.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/bucketselect.hpp"
#include "baselines/cpu_reference.hpp"
#include "baselines/quickselect.hpp"
#include "baselines/radixselect.hpp"
#include "core/approx_select.hpp"
#include "core/quantile.hpp"
#include "core/sample_select.hpp"
#include "core/sample_sort.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "simt/trace.hpp"
#include "stats/order_stats.hpp"

namespace {

using namespace gpusel;

struct Options {
    std::string algo = "sample";
    std::string arch = "V100";
    std::string dist = "uniform_real";
    std::size_t n = 1 << 20;
    std::size_t distinct = 0;
    std::uint64_t seed = 42;
    std::optional<std::size_t> rank;
    std::optional<double> quantile;
    std::size_t k = 10;  // for topk
    int buckets = 256;
    std::string atomics = "shared";
    bool warp_aggregation = false;
    int block_dim = 256;
    int unroll = 1;
    bool verify = false;
    bool timeline = false;
    std::string trace_path;
};

[[noreturn]] void usage(int code) {
    std::cout <<
        R"(gpusel_cli -- selection algorithms on a simulated GPU

  --algo <name>      sample | approx | quick | bucket | radix | topk | sort
                     (default: sample)
  --arch <name>      V100 | K20Xm                        (default: V100)
  --n <count>        number of elements                  (default: 2^20)
  --dist <name>      uniform_distinct | uniform_real | normal | exponential |
                     sorted_ascending | sorted_descending | organ_pipe |
                     adversarial_cluster | adversarial_geometric | zipf |
                     lognormal                           (default: uniform_real)
  --distinct <d>     distinct values for uniform_distinct (0 = all distinct)
  --seed <s>         dataset/sampling seed               (default: 42)
  --rank <k>         0-based target rank                 (default: n/2)
  --quantile <q>     target quantile in [0,1] (overrides --rank)
  --k <k>            k for --algo topk                   (default: 10)
  --buckets <b>      bucket count (power of two)         (default: 256)
  --atomics <mode>   shared | global                     (default: shared)
  --warp-agg         enable warp-aggregated histogram atomics (Fig. 6)
  --block-dim <t>    threads per block                   (default: 256)
  --unroll <u>       unrolling depth                     (default: 1)
  --verify           check the result against std::nth_element
  --timeline         print a per-kernel time summary
  --trace <file>     write a chrome://tracing JSON of all launches
  --help             this text
)";
    std::exit(code);
}

Options parse(int argc, char** argv) {
    Options o;
    auto need = [&](int& i) -> std::string {
        if (i + 1 >= argc) {
            std::cerr << "missing value for " << argv[i] << "\n";
            usage(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--algo") o.algo = need(i);
        else if (a == "--arch") o.arch = need(i);
        else if (a == "--dist") o.dist = need(i);
        else if (a == "--n") o.n = std::stoull(need(i));
        else if (a == "--distinct") o.distinct = std::stoull(need(i));
        else if (a == "--seed") o.seed = std::stoull(need(i));
        else if (a == "--rank") o.rank = std::stoull(need(i));
        else if (a == "--quantile") o.quantile = std::stod(need(i));
        else if (a == "--k") o.k = std::stoull(need(i));
        else if (a == "--buckets") o.buckets = std::stoi(need(i));
        else if (a == "--atomics") o.atomics = need(i);
        else if (a == "--warp-agg") o.warp_aggregation = true;
        else if (a == "--block-dim") o.block_dim = std::stoi(need(i));
        else if (a == "--unroll") o.unroll = std::stoi(need(i));
        else if (a == "--verify") o.verify = true;
        else if (a == "--timeline") o.timeline = true;
        else if (a == "--trace") o.trace_path = need(i);
        else if (a == "--help" || a == "-h") usage(0);
        else {
            std::cerr << "unknown option: " << a << "\n";
            usage(2);
        }
    }
    return o;
}

data::Distribution parse_dist(const std::string& name) {
    for (const auto d : data::all_distributions()) {
        if (to_string(d) == name) return d;
    }
    std::cerr << "unknown distribution: " << name << "\n";
    usage(2);
}

/// The value of a selection result; a typed error (e.g. a bad --buckets)
/// ends the run with the Status message instead of aborting.
template <typename T>
T checked(core::Result<T> r) {
    if (!r.ok()) {
        std::cerr << "error: " << r.status().to_message() << "\n";
        std::exit(1);
    }
    return std::move(r).value();
}

int run(const Options& o) {
    const auto dist = parse_dist(o.dist);
    const auto data = data::generate<float>(
        {.n = o.n, .dist = dist, .distinct_values = o.distinct, .seed = o.seed});
    std::size_t rank = o.rank.value_or(o.n / 2);
    if (o.quantile) rank = core::quantile_rank(o.n, *o.quantile);
    if (rank >= o.n) {
        std::cerr << "rank " << rank << " out of range for n = " << o.n << "\n";
        return 2;
    }

    simt::Device dev(simt::preset(o.arch));
    const auto space =
        o.atomics == "global" ? simt::AtomicSpace::global : simt::AtomicSpace::shared;

    core::SampleSelectConfig cfg;
    cfg.num_buckets = o.buckets;
    cfg.atomic_space = space;
    cfg.warp_aggregation = o.warp_aggregation;
    cfg.block_dim = o.block_dim;
    cfg.unroll = o.unroll;
    cfg.seed = o.seed;

    float value = 0;
    double sim_ns = 0;
    if (o.algo == "sample") {
        const auto r = checked(core::try_sample_select<float>(dev, data, rank, cfg));
        value = r.value;
        sim_ns = r.sim_ns;
        std::cout << "sample_select rank " << rank << " -> " << value << "  (levels "
                  << r.levels << (r.equality_exit ? ", equality exit" : "") << ", launches "
                  << r.launches << ", aux " << r.aux_bytes << " B)\n";
    } else if (o.algo == "approx") {
        const auto r = checked(core::try_approx_select<float>(dev, data, rank, cfg));
        value = r.value;
        sim_ns = r.sim_ns;
        std::cout << "approx_select rank " << rank << " -> " << value << "  (exact rank "
                  << r.splitter_rank << ", rank error " << r.rank_error << " = "
                  << static_cast<double>(r.rank_error) / static_cast<double>(o.n) * 100
                  << "%, max bucket " << r.max_bucket << ")\n";
    } else if (o.algo == "quick") {
        core::QuickSelectConfig qcfg;
        qcfg.atomic_space = space;
        qcfg.warp_aggregation = o.warp_aggregation;
        qcfg.block_dim = o.block_dim;
        qcfg.unroll = o.unroll;
        qcfg.seed = o.seed;
        const auto r = baselines::quick_select<float>(dev, data, rank, qcfg);
        value = r.value;
        sim_ns = r.sim_ns;
        std::cout << "quick_select rank " << rank << " -> " << value << "  (levels " << r.levels
                  << (r.equality_exit ? ", equality exit" : "") << ")\n";
    } else if (o.algo == "bucket") {
        baselines::BucketSelectConfig bcfg;
        bcfg.num_buckets = o.buckets;
        bcfg.atomic_space = space;
        bcfg.warp_aggregation = o.warp_aggregation;
        bcfg.block_dim = o.block_dim;
        const auto r = baselines::bucket_select<float>(dev, data, rank, bcfg);
        value = r.value;
        sim_ns = r.sim_ns;
        std::cout << "bucket_select rank " << rank << " -> " << value << "  (levels " << r.levels
                  << ")\n";
    } else if (o.algo == "radix") {
        baselines::RadixSelectConfig rcfg;
        rcfg.atomic_space = space;
        rcfg.warp_aggregation = o.warp_aggregation;
        rcfg.block_dim = o.block_dim;
        const auto r = baselines::radix_select<float>(dev, data, rank, rcfg);
        value = r.value;
        sim_ns = r.sim_ns;
        std::cout << "radix_select rank " << rank << " -> " << value << "  (levels " << r.levels
                  << ")\n";
    } else if (o.algo == "topk") {
        const auto r = checked(core::try_topk_largest<float>(dev, data, o.k, cfg));
        value = r.threshold;
        sim_ns = r.sim_ns;
        std::cout << "topk_largest k=" << o.k << " -> threshold " << value << "  ("
                  << r.elements.size() << " elements, levels " << r.levels << ")\n";
    } else if (o.algo == "sort") {
        const auto r = checked(core::try_sample_sort<float>(dev, data, cfg));
        value = r.sorted.empty() ? 0.0f : r.sorted[rank];
        sim_ns = r.sim_ns;
        std::cout << "sample_sort -> " << r.sorted.size() << " elements sorted (depth "
                  << r.max_depth << ", launches " << r.launches << ")\n";
    } else {
        std::cerr << "unknown algorithm: " << o.algo << "\n";
        return 2;
    }

    std::cout << "simulated time: " << sim_ns / 1e6 << " ms  ("
              << static_cast<double>(o.n) / sim_ns << "e9 elements/s on " << o.arch << ")\n";

    if (o.verify && o.algo != "sort") {
        const std::size_t vrank = o.algo == "topk" ? o.n - o.k : rank;
        const auto err = stats::rank_error<float>(data, value, vrank);
        if (o.algo == "approx") {
            std::cout << "verify: rank error vs std::nth_element = " << err << "\n";
        } else {
            std::cout << "verify: " << (err == 0 ? "OK (matches std::nth_element)"
                                                 : "MISMATCH vs std::nth_element!")
                      << "\n";
            if (err != 0) return 1;
        }
    }

    if (o.timeline) {
        std::cout << "\nkernel timeline (by total simulated time):\n"
                  << simt::format_timeline(dev.profiles());
    }
    if (!o.trace_path.empty()) {
        std::ofstream f(o.trace_path);
        simt::write_chrome_trace(f, dev.profiles(), dev.planner_log());
        std::cout << "trace written to " << o.trace_path << " (open in chrome://tracing)\n";
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
