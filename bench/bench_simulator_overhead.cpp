// google-benchmark harness for the *host-side* cost of the SIMT simulator
// itself.  The paper-figure binaries report simulated GPU time; this one
// measures how many input elements per wall-clock second the simulation
// substrate sustains, so regressions in the simulator hot paths (warp
// tiles, histogram atomics, collision accounting) are caught.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "baselines/quickselect.hpp"
#include "core/argselect.hpp"
#include "core/batch_executor.hpp"
#include "core/approx_select.hpp"
#include "core/count_kernel.hpp"
#include "core/reduce_kernel.hpp"
#include "core/sample_kernel.hpp"
#include "core/sample_select.hpp"
#include "core/shard_select.hpp"
#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "simt/fault.hpp"
#include "simt/topology.hpp"

namespace {

using namespace gpusel;

void BM_CountKernel(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const bool warp_agg = state.range(1) != 0;
    simt::Device dev(simt::arch_v100(), {.host_workers = simt::default_host_workers(),
                                         .record_profiles = false});
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 1});
    core::SampleSelectConfig cfg;
    cfg.warp_aggregation = warp_agg;
    const auto tree = core::sample_splitters<float>(dev, data, cfg, simt::LaunchOrigin::host);
    auto oracles = dev.alloc<std::uint8_t>(n);
    auto totals = dev.alloc<std::int32_t>(256);
    const int grid = simt::suggest_grid(dev.arch(), n, cfg.block_dim, cfg.unroll);
    auto block_counts = dev.alloc<std::int32_t>(static_cast<std::size_t>(grid) * 256);
    for (auto _ : state) {
        core::count_kernel<float>(dev, data, tree, oracles.span(), totals.span(),
                                  block_counts.span(), cfg, simt::LaunchOrigin::host);
        benchmark::DoNotOptimize(totals.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CountKernel)
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 1})
    ->Args({1 << 20, 0})
    ->Args({1 << 22, 0})
    ->Args({1 << 22, 1});

void BM_SampleSelectEndToEnd(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 2});
    std::uint64_t allocs = 0;
    std::uint64_t reuses = 0;
    std::size_t aux_bytes = 0;
    for (auto _ : state) {
        simt::Device dev(simt::arch_v100(), {.record_profiles = false});
        auto res = core::try_sample_select<float>(dev, data, n / 2, {}).value();
        benchmark::DoNotOptimize(res.value);
        allocs += dev.tracker().alloc_count();
        reuses += dev.tracker().reuse_count();
        aux_bytes = res.aux_bytes;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    const auto iters = static_cast<double>(state.iterations());
    state.counters["allocs_per_iter"] = static_cast<double>(allocs) / iters;
    state.counters["reuses_per_iter"] = static_cast<double>(reuses) / iters;
    state.counters["peak_aux_bytes"] = static_cast<double>(aux_bytes);
}
BENCHMARK(BM_SampleSelectEndToEnd)->Arg(1 << 16)->Arg(1 << 18);

// Same workload with the device -- and therefore the memory pool -- hoisted
// out of the loop: every selection after the first draws its scratch from
// the arena's free lists, so allocs_per_iter collapses (the pool's value
// proposition) while the simulated event stream stays identical.
void BM_SampleSelectWarmPool(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 2});
    simt::Device dev(simt::arch_v100(), {.record_profiles = false});
    {
        // Warm the size classes once outside the timed region.
        auto warm = core::try_sample_select<float>(dev, data, n / 2, {}).value();
        benchmark::DoNotOptimize(warm.value);
    }
    const std::uint64_t a0 = dev.tracker().alloc_count();
    const std::uint64_t r0 = dev.tracker().reuse_count();
    std::size_t aux_bytes = 0;
    for (auto _ : state) {
        auto res = core::try_sample_select<float>(dev, data, n / 2, {}).value();
        benchmark::DoNotOptimize(res.value);
        aux_bytes = res.aux_bytes;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    const auto iters = static_cast<double>(state.iterations());
    state.counters["allocs_per_iter"] =
        static_cast<double>(dev.tracker().alloc_count() - a0) / iters;
    state.counters["reuses_per_iter"] =
        static_cast<double>(dev.tracker().reuse_count() - r0) / iters;
    state.counters["peak_aux_bytes"] = static_cast<double>(aux_bytes);
}
BENCHMARK(BM_SampleSelectWarmPool)->Arg(1 << 16)->Arg(1 << 18);

// Selection under an injected 2% alloc/launch fault schedule: measures the
// wall-clock cost of the bounded-retry machinery (docs/robustness.md) and
// surfaces the Device's RobustnessCounters in the JSON so the self-healing
// rate is tracked alongside throughput.  recovered_frac < 1 would mean the
// retry budget no longer absorbs this fault rate -- a robustness regression.
void BM_SampleSelectUnderFaults(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 5});
    simt::FaultSpec spec;
    spec.seed = 17;
    spec.alloc_rate = 0.02;
    spec.launch_rate = 0.02;
    std::uint64_t recovered = 0;
    std::uint64_t total = 0;
    simt::RobustnessCounters rc;
    for (auto _ : state) {
        simt::Device dev(simt::arch_v100(), {.record_profiles = false});
        spec.seed += 1;  // a fresh deterministic schedule per iteration
        dev.set_faults(spec);
        auto res = core::try_sample_select<float>(dev, data, n / 2, {});
        benchmark::DoNotOptimize(res);
        if (res.ok()) ++recovered;
        ++total;
        rc += dev.robustness();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    const auto iters = static_cast<double>(state.iterations());
    state.counters["alloc_retries_per_iter"] = static_cast<double>(rc.alloc_retries) / iters;
    state.counters["launch_retries_per_iter"] = static_cast<double>(rc.launch_retries) / iters;
    state.counters["resamples_per_iter"] = static_cast<double>(rc.resamples) / iters;
    state.counters["fallbacks_per_iter"] = static_cast<double>(rc.fallbacks) / iters;
    state.counters["recovered_frac"] =
        total ? static_cast<double>(recovered) / static_cast<double>(total) : 1.0;
}
BENCHMARK(BM_SampleSelectUnderFaults)->Arg(1 << 16)->Arg(1 << 18);

// Selection with SimTSan armed (strict mode): measures the wall-clock cost
// of the shadow-memory checks on every instrumented access.  The simulated
// event stream is identical by contract (test_sanitizer golden test); only
// host time changes.  san_slowdown_x is the acceptance metric for the
// sanitizer: it must stay within ~3x of the uninstrumented run.
void BM_SampleSelectUnderSan(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 2});

    // Baseline: wall-clock for the identical selection with the sanitizer
    // off, measured outside the benchmark loop (same device lifecycle).
    const auto wall = [&](simt::SanMode mode) {
        simt::Device dev(simt::arch_v100(), {.record_profiles = false});
        dev.set_sanitizer(mode);
        const auto t0 = std::chrono::steady_clock::now();
        auto res = core::try_sample_select<float>(dev, data, n / 2, {}).value();
        benchmark::DoNotOptimize(res.value);
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    };
    double off_s = 0.0;
    double on_s = 0.0;
    constexpr int kProbes = 5;
    for (int i = 0; i < kProbes; ++i) {
        off_s += wall(simt::SanMode::off);
        on_s += wall(simt::SanMode::strict);
    }

    std::uint64_t checks = 0;
    for (auto _ : state) {
        simt::Device dev(simt::arch_v100(), {.record_profiles = false});
        dev.set_sanitizer(simt::SanMode::strict);
        auto res = core::try_sample_select<float>(dev, data, n / 2, {}).value();
        benchmark::DoNotOptimize(res.value);
        checks += dev.sanitizer()->checks();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    state.counters["san_slowdown_x"] = off_s > 0.0 ? on_s / off_s : 0.0;
    state.counters["san_checks_per_iter"] =
        static_cast<double>(checks) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SampleSelectUnderSan)->Arg(1 << 16)->Arg(1 << 18);

// Selection with StreamSan armed (strict mode): measures the wall-clock
// cost of the happens-before bookkeeping -- per-access byte-range folds on
// the kernel side plus the per-launch history analysis on the host.  The
// simulated event stream is identical by contract (the test_streamsan
// golden test); streamsan_slowdown_x is the acceptance metric and must
// stay within 1.5x of the uninstrumented run (docs/streamsan.md) -- far
// below SimTSan's ~3x, since StreamSan keeps no shadow memory.
void BM_SampleSelectUnderStreamSan(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 2});

    const auto wall = [&](simt::StreamSanMode mode) {
        simt::Device dev(simt::arch_v100(), {.record_profiles = false});
        dev.set_stream_sanitizer(mode);
        const auto t0 = std::chrono::steady_clock::now();
        auto res = core::try_sample_select<float>(dev, data, n / 2, {}).value();
        benchmark::DoNotOptimize(res.value);
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    };
    double off_s = 0.0;
    double on_s = 0.0;
    constexpr int kProbes = 5;
    for (int i = 0; i < kProbes; ++i) {
        off_s += wall(simt::StreamSanMode::off);
        on_s += wall(simt::StreamSanMode::strict);
    }

    std::uint64_t checks = 0;
    for (auto _ : state) {
        simt::Device dev(simt::arch_v100(), {.record_profiles = false});
        dev.set_stream_sanitizer(simt::StreamSanMode::strict);
        auto res = core::try_sample_select<float>(dev, data, n / 2, {}).value();
        benchmark::DoNotOptimize(res.value);
        checks += dev.stream_sanitizer()->checks();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    state.counters["streamsan_slowdown_x"] = off_s > 0.0 ? on_s / off_s : 0.0;
    state.counters["streamsan_checks_per_iter"] =
        static_cast<double>(checks) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SampleSelectUnderStreamSan)->Arg(1 << 16)->Arg(1 << 18);

// Stream-parallel batched selection (core/batch_executor.hpp): 8 problems
// fanned over range(1) streams.  Measures the host-side cost of driving the
// fan (per-stream arenas, event fork/join) and surfaces the simulated
// overlap factor -- overlap_x should approach the stream count on the
// recursive path and must stay >= 1.
void BM_BatchedSelectStreams(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const int streams = static_cast<int>(state.range(1));
    constexpr std::size_t kProblems = 8;
    std::vector<std::vector<float>> inputs;
    inputs.reserve(kProblems);
    std::vector<core::BatchProblem<float>> problems;
    for (std::size_t i = 0; i < kProblems; ++i) {
        inputs.push_back(data::generate<float>(
            {.n = n, .dist = data::Distribution::uniform_real, .seed = 6 + i}));
        problems.push_back({inputs.back(), n / 2});
    }
    double overlap = 1.0;
    for (auto _ : state) {
        simt::Device dev(simt::arch_v100(), {.record_profiles = false});
        core::BatchExecutor<float> exec(dev, {}, {.streams = streams});
        auto res = exec.run(problems);
        benchmark::DoNotOptimize(res);
        if (res.ok()) overlap = res.value().overlap_x();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n * kProblems));
    state.counters["overlap_x"] = overlap;
    state.counters["streams"] = static_cast<double>(streams);
}
BENCHMARK(BM_BatchedSelectStreams)->Args({1 << 16, 1})->Args({1 << 16, 4});

void BM_QuickSelectEndToEnd(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 3});
    for (auto _ : state) {
        simt::Device dev(simt::arch_v100(), {.record_profiles = false});
        auto res = baselines::quick_select<float>(dev, data, n / 2, {});
        benchmark::DoNotOptimize(res.value);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_QuickSelectEndToEnd)->Arg(1 << 16)->Arg(1 << 18);

void BM_ApproxSelect(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 4});
    core::SampleSelectConfig cfg;
    cfg.num_buckets = 1024;
    for (auto _ : state) {
        simt::Device dev(simt::arch_v100(), {.record_profiles = false});
        auto res = core::try_approx_select<float>(dev, data, n / 2, cfg).value();
        benchmark::DoNotOptimize(res.value);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ApproxSelect)->Arg(1 << 18);

// The masked compress-store tile primitive itself (simt/simd.hpp): stream
// oracle bytes + elements through byte_eq_mask + compress_store at a fixed
// SIMD tier (range(1): 0 scalar, 2 avx2, 3 avx512).  The scalar row
// is the denominator for the vectorization win -- the AVX2 row must hold
// >= 1.5x its items_per_second (PR acceptance; the CI gate then keeps the
// whole family from regressing).  Tiers the host cannot run are skipped.
void BM_FilterCompressStore(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto want = static_cast<simt::simd::Level>(state.range(1));
    simt::simd::set_level(want);
    if (simt::simd::active_level() != want) {
        simt::simd::set_enabled(true);
        state.SkipWithError("SIMD tier unsupported on this host");
        return;
    }
    constexpr std::uint8_t kBucket = 3;  // 1-in-8 selectivity
    const auto src = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 8});
    std::vector<std::uint8_t> oracle(n);
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    for (auto& o : oracle) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        o = static_cast<std::uint8_t>((s >> 33) & 7u);
    }
    std::vector<float> dst(n);
    std::size_t kept = 0;
    for (auto _ : state) {
        std::size_t out = 0;
        for (std::size_t i = 0; i < n; i += simt::simd::kTileLanes) {
            const int lanes = static_cast<int>(
                std::min<std::size_t>(simt::simd::kTileLanes, n - i));
            const std::uint32_t mask =
                simt::simd::byte_eq_mask(oracle.data() + i, kBucket, lanes);
            out += static_cast<std::size_t>(
                simt::simd::compress_store(src.data() + i, mask, lanes, dst.data() + out));
        }
        benchmark::DoNotOptimize(dst.data());
        kept = out;
    }
    simt::simd::set_enabled(true);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    state.counters["selectivity"] =
        static_cast<double>(kept) / static_cast<double>(n);
    state.SetLabel(simt::simd::level_name(want));
}
BENCHMARK(BM_FilterCompressStore)
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 2})
    ->Args({1 << 20, 3});

// End-to-end argselect (core/argselect.hpp): the float pipeline widened to
// (key, index) pairs, so this row tracks the host-side cost of the 8-byte
// element path -- compress-store tiles, pair search trees, pair bitonic.
void BM_Argselect(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto keys = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 9});
    for (auto _ : state) {
        simt::Device dev(simt::arch_v100(), {.record_profiles = false});
        auto res = core::try_argselect(dev, keys, n / 2, {}).value();
        benchmark::DoNotOptimize(res.index);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Argselect)->Arg(1 << 16)->Arg(1 << 18);

// Adversarial-distribution top-k through the planned front-end
// (docs/planner.md).  range(1) picks the distribution (0 = all-equal,
// 1 = heavy duplicates); k = n/2.  Manual timing on the simulated clock:
// every row at n = 65536 runs the sampled descent and its equality-bucket
// exit, 42.8 us all-equal and 42.0 us two-value on the V100 model.  The
// CI gate keeps the family from regressing.  The backend_* counters feed
// the planner-coverage step of tools/check_bench_regression.py: across the
// whole sweep every backend must be selected at least once (the small-n
// row routes to bitonic).
void BM_PlannerAdversarial(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const bool heavy_dup = state.range(1) != 0;
    const std::size_t k = n / 2;  // deep top-k: the sampler's worst case
    const auto data =
        heavy_dup ? data::generate<float>({.n = n,
                                           .dist = data::Distribution::uniform_distinct,
                                           .distinct_values = 2,
                                           .seed = 14})
                  : std::vector<float>(n, 1.5f);
    simt::RobustnessCounters rc;
    for (auto _ : state) {
        simt::Device dev(simt::arch_v100(), {.record_profiles = false});
        auto res = core::try_topk_largest<float>(dev, data, k, {}).value();
        benchmark::DoNotOptimize(res.threshold);
        rc += dev.robustness();
        state.SetIterationTime(dev.elapsed_ns() * 1e-9);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    state.counters["backend_sample"] = static_cast<double>(rc.backend_sample);
    state.counters["backend_bitonic"] = static_cast<double>(rc.backend_bitonic);
    state.SetLabel(heavy_dup ? "heavy_dup" : "all_equal");
}
BENCHMARK(BM_PlannerAdversarial)
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 1})
    ->Args({512, 0})  // small n: the planner's bitonic lane
    ->UseManualTime();

// Sharded multi-device selection (core/shard_select.hpp): one out-of-core
// selection per iteration over a group whose modeled per-device memory is
// far below n, so every iteration runs the full candidate/merge/count/
// filter pipeline across the modeled interconnect.  The group lives
// outside the timing loop (constructing N devices is setup, not the work
// under test).  The link_bytes_per_iter counter is what the bench
// regression gate's shard-coverage step requires: it proves the benchmark
// really moved bytes over the links rather than degenerating to one shard.
void BM_ShardedSelect(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const int devices = static_cast<int>(state.range(1));
    const auto data = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 7});
    simt::TopologySpec spec;
    spec.num_devices = devices;
    spec.arch = simt::arch_v100();
    // 256 KiB modeled capacity -> 64 KiB staging -> 16384 floats/shard.
    spec.mem_capacity_bytes = 256 * 1024;
    spec.device_opts = {.record_profiles = false};
    simt::DeviceGroup group(spec);
    core::ShardSelectConfig cfg;
    std::uint64_t link_bytes = 0;
    std::uint64_t launches = 0;
    double sim_ns = 0.0;
    std::size_t shards = 0;
    for (auto _ : state) {
        auto res = core::try_sharded_select<float>(group, data, n / 2, cfg);
        if (!res.ok()) {
            state.SkipWithError(res.status().message.c_str());
            return;
        }
        benchmark::DoNotOptimize(res.value().value);
        link_bytes += res.value().acct.link_bytes;
        launches += res.value().acct.launches;
        sim_ns += res.value().acct.sim_ns;
        shards = res.value().acct.shards;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    const auto iters = static_cast<double>(state.iterations());
    state.counters["link_bytes_per_iter"] = static_cast<double>(link_bytes) / iters;
    state.counters["launches_per_iter"] = static_cast<double>(launches) / iters;
    state.counters["sim_ms_per_iter"] = sim_ns / iters / 1e6;
    state.counters["shards"] = static_cast<double>(shards);
    state.counters["devices"] = static_cast<double>(devices);
}
BENCHMARK(BM_ShardedSelect)->Args({1 << 18, 2})->Args({1 << 18, 4});

}  // namespace
