// Sharded multi-device selection tests (core/shard_select.hpp,
// docs/sharding.md): the shard-count planner, exact out-of-core selection
// against the CPU reference on inputs 8x one device's modeled memory, the
// deterministic splitter skew bound (measured max bucket <= guarantee),
// the per-shard auxiliary-memory invariant, approximate selection's exact
// rank-error bound, sharded top-k, the streaming quantile sketch, NaN
// policies, determinism, the locate's work reused (one count transfer per
// device, the gather filtering the counted levels, the root's first tree
// cut from the merge), golden hashes of each front-end's launches, link
// traffic and accounting, and the cross-device StreamSan broken scenarios:
// consuming a transfer's landing buffer without its ready edge and
// overwriting the staging buffer mid-send are each a reportable hazard of
// the exact expected kind, and the edge-correct pattern reports nothing.

#include "core/shard_select.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/float_order.hpp"
#include "core/sample_kernel.hpp"
#include "core/searchtree.hpp"
#include "data/distributions.hpp"
#include "data/rng.hpp"
#include "golden_hash.hpp"
#include "simt/arch.hpp"
#include "simt/fault.hpp"
#include "simt/streamsan.hpp"
#include "simt/topology.hpp"

namespace {

using namespace gpusel;
using core::ShardSelectConfig;
using simt::HazardKind;
using simt::StreamSanError;
using simt::StreamSanMode;

/// Group with a tiny modeled per-device memory so out-of-core inputs stay
/// cheap: 64 KiB capacity -> 16 KiB staging budget -> 4096 floats/shard.
constexpr std::size_t kTinyCapacity = 64 * 1024;

simt::TopologySpec tiny_spec(int devices, std::size_t capacity = kTinyCapacity) {
    simt::TopologySpec spec;
    spec.num_devices = devices;
    spec.arch = simt::arch_v100();
    spec.mem_capacity_bytes = capacity;
    return spec;
}

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
    data::Xoshiro256 rng(seed);
    std::vector<float> v(n);
    for (auto& x : v) x = static_cast<float>(rng.uniform() * 2000.0 - 1000.0);
    return v;
}

/// CPU reference: the element of 0-based `rank` under the library's total
/// order (NaNs above +inf).
template <typename T>
T reference_select(std::vector<T> v, std::size_t rank) {
    auto nth = v.begin() + static_cast<std::ptrdiff_t>(rank);
    std::nth_element(v.begin(), nth, v.end(), [](T a, T b) { return core::total_less(a, b); });
    return *nth;
}

/// 0-based rank interval [lo, hi] the value occupies in the sorted input.
std::pair<std::size_t, std::size_t> reference_rank_range(std::vector<float> v, float value) {
    std::sort(v.begin(), v.end(), [](float a, float b) { return core::total_less(a, b); });
    const auto lo = std::lower_bound(v.begin(), v.end(), value,
                                     [](float a, float b) { return core::total_less(a, b); });
    const auto hi = std::upper_bound(v.begin(), v.end(), value,
                                     [](float a, float b) { return core::total_less(a, b); });
    EXPECT_NE(lo, hi) << "value " << value << " not present in the input";
    return {static_cast<std::size_t>(lo - v.begin()),
            static_cast<std::size_t>(hi - v.begin()) - 1};
}

// ---- shard-count planning ---------------------------------------------------

TEST(ShardPlanTest, FitsOneDevice) {
    const auto p = core::plan_shard_count(1000, 4, 1 << 20, 4);
    EXPECT_EQ(p.shards, 1u);
    EXPECT_STREQ(p.reason, "fits one device");
}

TEST(ShardPlanTest, OversizedInputChunksAgainstStagingBudget) {
    // 64 KiB capacity -> 16 KiB staging -> 4096 floats per shard.
    const auto p = core::plan_shard_count(100000, 4, kTinyCapacity, 2);
    EXPECT_EQ(p.shards, (100000 + 4095) / 4096u);
    EXPECT_LE(p.shard_elems, 4096u);
    EXPECT_STREQ(p.reason, "exceeds per-device staging budget");
}

TEST(ShardPlanTest, SmallOversubscriptionSpreadsOverAllDevices) {
    // Two shards' worth of data on a 4-device group spreads to 4 shards.
    const auto p = core::plan_shard_count(8000, 4, kTinyCapacity, 4);
    EXPECT_EQ(p.shards, 4u);
    EXPECT_STREQ(p.reason, "spread over all devices");
}

TEST(ShardPlanTest, NeverCutsBelowOneElementPerShard) {
    // 16 B capacity -> 4 B staging -> a budget of one float per shard.
    const auto p = core::plan_shard_count(3, 4, 16, 8);
    EXPECT_EQ(p.shards, 3u);
    EXPECT_EQ(p.shard_elems, 1u);
}

// ---- exact sharded selection ------------------------------------------------

TEST(ShardedSelect, MatchesCpuReferenceAt8xDeviceMemory) {
    // 8x the modeled 64 KiB capacity: 131072 floats (+ a ragged tail).
    const std::size_t n = 8 * kTinyCapacity / sizeof(float) + 37;
    const auto input = random_floats(n, 101);
    simt::DeviceGroup group(tiny_spec(2));
    ShardSelectConfig cfg;
    for (const std::size_t rank :
         {std::size_t{0}, n / 3, n / 2, n - 2, n - 1}) {
        auto res = core::try_sharded_select<float>(group, input, rank, cfg);
        ASSERT_TRUE(res.ok()) << res.status().message;
        EXPECT_EQ(res.value().value, reference_select(input, rank)) << "rank " << rank;
    }
}

TEST(ShardedSelect, AccountingInvariantsHold) {
    const std::size_t n = 8 * kTinyCapacity / sizeof(float);
    const auto input = random_floats(n, 102);
    simt::DeviceGroup group(tiny_spec(2));
    ShardSelectConfig cfg;
    auto res = core::try_sharded_select<float>(group, input, n / 2, cfg);
    ASSERT_TRUE(res.ok()) << res.status().message;
    const auto& a = res.value().acct;
    // The input was genuinely out of core and used the whole group.
    EXPECT_GE(a.shards, 8u);
    EXPECT_EQ(a.devices_used, 2);
    EXPECT_LE(a.max_shard_elems, 4096u);
    // Out-of-core invariant: per-device auxiliary memory stays within one
    // device's modeled capacity even though n is 8x beyond it.
    EXPECT_LE(a.max_shard_aux_bytes, group.mem_capacity_bytes());
    // The deterministic splitter guarantee: the measured largest
    // non-equality bucket respects the regular-sampling bound.
    EXPECT_GT(a.skew_bound, 0u);
    EXPECT_LE(a.max_bucket, a.skew_bound);
    // Cross-device work really moved bytes over the modeled links and
    // consumed simulated time and launches.
    EXPECT_GT(a.link_bytes, 0u);
    EXPECT_EQ(a.link_bytes, group.total_link_bytes());
    EXPECT_GT(a.sim_ns, 0.0);
    EXPECT_GT(a.launches, 0u);
    // 32 shards of one tile: a tile-sample launch and a counting pass per
    // shard, a filter per shard holding the bucket and a recount for all
    // but each device's last (no other counted level fits the kept-level
    // budget here), 4 transfers and the root's descent (measured 201).
    EXPECT_LE(a.launches, 260u);
    EXPECT_EQ(a.nan_count, 0u);
}

TEST(ShardedSelect, UnrecordedGroupKeepsNoTraceLogs) {
    // Without record_profiles the per-operation logs stay empty however
    // many selections and transfers run; the byte totals still count.
    const std::size_t n = 20000;
    const auto input = random_floats(n, 109);
    for (const bool record : {false, true}) {
        simt::TopologySpec spec = tiny_spec(2);
        spec.device_opts.record_profiles = record;
        simt::DeviceGroup group(spec);
        for (int i = 0; i < 5; ++i) {
            const std::size_t rank = static_cast<std::size_t>(i) * n / 5;
            auto res = core::try_sharded_select<float>(group, input, rank, {});
            ASSERT_TRUE(res.ok()) << res.status().message;
            EXPECT_EQ(res.value().value, reference_select(input, rank));
        }
        EXPECT_GT(group.total_link_bytes(), 0u);
        EXPECT_GT(group.transfer_count(), 0u);
        EXPECT_EQ(group.link_counters().empty(), !record);
        EXPECT_EQ(group.link_instants().empty(), !record);
        // The one planner decision of a sharded call is device 0's; the
        // other devices run passes, not planned selections.
        EXPECT_EQ(group.device(0).planner_log().empty(), !record);
        for (int d = 0; d < group.size(); ++d) {
            if (!record) {
                EXPECT_TRUE(group.device(d).planner_log().empty()) << "device " << d;
            }
            EXPECT_EQ(group.device(d).profiles().empty(), !record) << "device " << d;
        }
    }
}

TEST(ShardedSelect, SingleShardPassthrough) {
    const auto input = random_floats(2000, 103);
    simt::DeviceGroup group(tiny_spec(2));
    ShardSelectConfig cfg;
    auto res = core::try_sharded_select<float>(group, input, 1234, cfg);
    ASSERT_TRUE(res.ok()) << res.status().message;
    EXPECT_EQ(res.value().value, reference_select(input, 1234));
    EXPECT_EQ(res.value().acct.shards, 1u);
    // No merge ran: the skew machinery reports zeros per the contract.
    EXPECT_EQ(res.value().acct.skew_bound, 0u);
    EXPECT_EQ(res.value().acct.link_bytes, 0u);
}

TEST(ShardedSelect, DuplicateHeavyInputStaysExact) {
    const std::size_t n = 40000;
    data::Xoshiro256 rng(104);
    std::vector<float> input(n);
    for (auto& x : input) x = static_cast<float>(static_cast<int>(rng.uniform() * 8.0));
    simt::DeviceGroup group(tiny_spec(2));
    ShardSelectConfig cfg;
    for (const std::size_t rank : {n / 4, n / 2, 3 * n / 4}) {
        auto res = core::try_sharded_select<float>(group, input, rank, cfg);
        ASSERT_TRUE(res.ok()) << res.status().message;
        EXPECT_EQ(res.value().value, reference_select(input, rank)) << "rank " << rank;
    }
}

TEST(ShardedSelect, DeterministicAcrossRuns) {
    const std::size_t n = 50000;
    const auto input = random_floats(n, 105);
    ShardSelectConfig cfg;
    std::optional<core::ShardedSelectResult<float>> first;
    for (int run = 0; run < 2; ++run) {
        simt::DeviceGroup group(tiny_spec(3));
        auto res = core::try_sharded_select<float>(group, input, n / 2, cfg);
        ASSERT_TRUE(res.ok()) << res.status().message;
        if (!first) {
            first = res.value();
            continue;
        }
        EXPECT_EQ(res.value().value, first->value);
        EXPECT_EQ(res.value().acct.skew_bound, first->acct.skew_bound);
        EXPECT_EQ(res.value().acct.merge_candidates, first->acct.merge_candidates);
        EXPECT_EQ(res.value().acct.link_bytes, first->acct.link_bytes);
        EXPECT_EQ(res.value().acct.launches, first->acct.launches);
    }
}

TEST(ShardedSelect, NanPoliciesMatchSingleDeviceContract) {
    auto input = random_floats(30000, 106);
    for (std::size_t i = 0; i < input.size(); i += 97) input[i] = core::quiet_nan<float>();
    const std::size_t nan = (input.size() + 96) / 97;
    simt::DeviceGroup group(tiny_spec(2));
    ShardSelectConfig cfg;

    cfg.select.nan_policy = core::NanPolicy::reject;
    auto rej = core::try_sharded_select<float>(group, input, 10, cfg);
    ASSERT_FALSE(rej.ok());
    EXPECT_EQ(rej.status().code, core::SelectError::nan_keys_rejected);

    cfg.select.nan_policy = core::NanPolicy::propagate_largest;
    auto mid = core::try_sharded_select<float>(group, input, input.size() / 2, cfg);
    ASSERT_TRUE(mid.ok()) << mid.status().message;
    EXPECT_EQ(mid.value().value, reference_select(input, input.size() / 2));
    EXPECT_EQ(mid.value().acct.nan_count, nan);

    // A rank inside the NaN tail answers NaN (NaNs sort above +inf).
    auto tail = core::try_sharded_select<float>(group, input, input.size() - 1, cfg);
    ASSERT_TRUE(tail.ok()) << tail.status().message;
    EXPECT_TRUE(std::isnan(tail.value().value));
}

TEST(ShardedSelect, TypedErrors) {
    simt::DeviceGroup group(tiny_spec(2));
    ShardSelectConfig cfg;
    const std::vector<float> empty;
    auto e1 = core::try_sharded_select<float>(group, empty, 0, cfg);
    EXPECT_EQ(e1.status().code, core::SelectError::empty_input);

    const auto input = random_floats(100, 107);
    auto e2 = core::try_sharded_select<float>(group, input, 100, cfg);
    EXPECT_EQ(e2.status().code, core::SelectError::rank_out_of_range);

    ShardSelectConfig bad = cfg;
    bad.splitter_buckets = 3;  // not a power of two
    auto e3 = core::try_sharded_select<float>(group, input, 10, bad);
    EXPECT_EQ(e3.status().code, core::SelectError::invalid_argument);

    ShardSelectConfig fan = cfg;
    fan.merge_fanin = 1;
    auto e4 = core::try_sharded_select<float>(group, input, 10, fan);
    EXPECT_EQ(e4.status().code, core::SelectError::invalid_argument);
}

TEST(ShardedSelect, DoubleKeysAndDeepFanin) {
    const std::size_t n = 60000;
    data::Xoshiro256 rng(108);
    std::vector<double> input(n);
    for (auto& x : input) x = rng.uniform() * 1e6 - 5e5;
    simt::DeviceGroup group(tiny_spec(4));
    ShardSelectConfig cfg;
    cfg.merge_fanin = 2;  // force multiple hierarchical merge rounds
    auto res = core::try_sharded_select<double>(group, input, n / 2, cfg);
    ASSERT_TRUE(res.ok()) << res.status().message;
    std::vector<double> ref = input;
    auto nth = ref.begin() + static_cast<std::ptrdiff_t>(n / 2);
    std::nth_element(ref.begin(), nth, ref.end());
    EXPECT_EQ(res.value().value, *nth);
    EXPECT_EQ(res.value().acct.devices_used, 4);
}

// ---- the sharded clock ------------------------------------------------------

/// The sharded_512k shape: four V100s with 1 MiB each (65,536 floats of
/// staging per shard), 2^19 uniform floats in 8 shards.
constexpr std::size_t kMiB = std::size_t{1} << 20;
constexpr std::size_t kBenchN = std::size_t{1} << 19;

TEST(ShardedSelect, EveryCallOnAGroupTakesTheSameTime) {
    // A call starts when it is issued, so a device that finished its share
    // of the previous call early does not start the next one ahead of the
    // group: every call on a reused group takes the first call's time.
    const auto input = random_floats(kBenchN, 115);
    simt::DeviceGroup group(tiny_spec(4, kMiB));
    std::optional<double> first;
    for (int call = 0; call < 4; ++call) {
        auto res = core::try_sharded_select<float>(group, input, kBenchN / 3, {});
        ASSERT_TRUE(res.ok()) << res.status().message;
        ASSERT_GE(res.value().acct.shards, 8u);
        if (!first) {
            first = res.value().acct.sim_ns;
            continue;
        }
        // Clocks are absolute doubles, so a later origin rounds the same
        // durations a few ulps differently.
        EXPECT_NEAR(res.value().acct.sim_ns, *first, *first * 1e-12) << "call " << call;
    }
}

TEST(ShardedSelect, GatherStartsAfterTheBucketIsLocated) {
    // The host learns the rank's bucket when device 0's select_bucket
    // finishes, so no device may start filtering for it earlier.
    const auto input = random_floats(kBenchN, 116);
    simt::DeviceGroup group(tiny_spec(4, kMiB));
    auto res = core::try_sharded_select<float>(group, input, kBenchN / 3, {});
    ASSERT_TRUE(res.ok()) << res.status().message;
    EXPECT_EQ(res.value().value, reference_select(input, kBenchN / 3));
    const auto named = [](const char* name) {
        return [name](const simt::KernelProfile& p) { return p.name == name; };
    };
    const auto& root = group.device(0).profiles();
    const auto sb = std::find_if(root.begin(), root.end(), named("select_bucket"));
    ASSERT_NE(sb, root.end());
    const double located = sb->start_ns + sb->sim_ns;
    for (int d = 1; d < group.size(); ++d) {
        // The splitters land on a device with its last link_recv.  Its
        // locate follows and ends with the send of its last shard's counts,
        // before its first filter; the gather begins with the launch after
        // that send.
        const auto& prof = group.device(d).profiles();
        const auto recv = std::find_if(prof.rbegin(), prof.rend(), named("link_recv")).base();
        const auto filter = std::find_if(recv, prof.end(), named("filter"));
        ASSERT_NE(filter, prof.end()) << "device " << d;
        const auto send = std::find_if(std::make_reverse_iterator(filter),
                                       std::make_reverse_iterator(recv), named("link_send"));
        ASSERT_NE(send.base(), recv) << "device " << d;
        const simt::KernelProfile& first_gather = *send.base();
        EXPECT_GE(first_gather.start_ns, located)
            << "device " << d << ": " << first_gather.name << " starts before the bucket is known";
    }
}

// ---- the locate's work, reused ------------------------------------------------

/// Launches in [first, last) named `name`.
std::size_t launches_named(std::vector<simt::KernelProfile>::const_iterator first,
                           std::vector<simt::KernelProfile>::const_iterator last,
                           const std::string& name) {
    return static_cast<std::size_t>(
        std::count_if(first, last, [&](const simt::KernelProfile& p) { return p.name == name; }));
}

/// Counting launches of a level: the filter's count and the count-only one.
std::size_t count_launches(std::vector<simt::KernelProfile>::const_iterator first,
                           std::vector<simt::KernelProfile>::const_iterator last) {
    return launches_named(first, last, "count") + launches_named(first, last, "count_nowrite");
}

/// The locate of docs/sharding.md, redone on the host: `shards` near-equal
/// contiguous shards, each tile's regular sample (core::TileSample), the
/// global splitters at regular ranks of the sorted candidates, each shard's
/// row of b bucket counts, and the bucket whose prefix range holds `rank`.
struct HostLocate {
    std::vector<std::size_t> candidates;         ///< per shard
    std::vector<std::vector<std::size_t>> rows;  ///< per shard, b counts
    std::size_t bucket = 0;
};

HostLocate host_locate(const std::vector<float>& input, std::size_t shards, int b,
                       std::size_t rank) {
    HostLocate h;
    std::vector<std::vector<float>> chunk(shards);
    std::vector<float> cand;
    std::size_t src = 0;
    for (std::size_t j = 0; j < shards; ++j) {
        const std::size_t nj = input.size() / shards + (j < input.size() % shards ? 1 : 0);
        chunk[j].assign(input.begin() + static_cast<std::ptrdiff_t>(src),
                        input.begin() + static_cast<std::ptrdiff_t>(src + nj));
        src += nj;
        const core::TileSample shape{.n = nj, .per_tile = static_cast<std::size_t>(4 * b)};
        h.candidates.push_back(shape.total());
        for (std::size_t t = 0; t < shape.tiles(); ++t) {
            const auto begin = chunk[j].begin() + static_cast<std::ptrdiff_t>(t * 4096);
            std::vector<float> tile(begin, begin + static_cast<std::ptrdiff_t>(shape.length(t)));
            std::sort(tile.begin(), tile.end());
            for (std::size_t i = 0; i < shape.samples(t); ++i) {
                cand.push_back(tile[shape.rank(t, i)]);
            }
        }
    }
    std::sort(cand.begin(), cand.end());
    std::vector<float> splitters;
    const auto buckets = static_cast<std::size_t>(b);
    for (std::size_t t = 1; t < buckets; ++t) {
        const std::size_t idx = t * cand.size() / buckets;
        splitters.push_back(cand[idx > 0 ? idx - 1 : 0]);
    }
    const auto tree = core::SearchTree<float>::build(splitters);
    std::vector<std::size_t> totals(buckets, 0);
    for (const auto& c : chunk) {
        auto& r = h.rows.emplace_back(buckets, 0);
        for (const float x : c) ++r[static_cast<std::size_t>(tree.find_bucket(x))];
        for (std::size_t i = 0; i < buckets; ++i) totals[i] += r[i];
    }
    std::size_t below = 0;
    while (rank >= below + totals[h.bucket]) below += totals[h.bucket++];
    return h;
}

TEST(ShardedSelect, OneCountTransferPerDevice) {
    // Every device but the root sends its shards' count rows in one
    // transfer, and device 0 lands the three of them before select_bucket.
    const auto input = random_floats(kBenchN, 126);
    const std::size_t rank = kBenchN / 3;
    simt::DeviceGroup group(tiny_spec(4, kMiB));
    const ShardSelectConfig cfg;
    auto res = core::try_sharded_select<float>(group, input, rank, cfg);
    ASSERT_TRUE(res.ok()) << res.status().message;
    EXPECT_EQ(res.value().value, reference_select(input, rank));
    const core::ShardAccounting& a = res.value().acct;
    ASSERT_EQ(a.shards, 8u);
    // Per device but the root: its candidates, its count rows and its slice
    // of the bucket, three transfers to device 0 and the splitters back.
    EXPECT_EQ(group.transfer_count(), 12u);

    const auto& root = group.device(0).profiles();
    const auto named = [](const char* name) {
        return [name](const simt::KernelProfile& p) { return p.name == name; };
    };
    const auto sb = std::find_if(root.begin(), root.end(), named("select_bucket"));
    ASSERT_NE(sb, root.end());
    const auto broadcast =
        std::find_if(std::make_reverse_iterator(sb), root.rend(), named("link_send")).base();
    ASSERT_NE(broadcast, root.begin());
    EXPECT_EQ(launches_named(broadcast, sb, "link_recv"), 3u);

    // The bucket device 0 located is the one the host locates over the
    // per-shard rows: each device's link carried its candidates, its rows
    // and exactly its shards' counts of that bucket.
    const HostLocate h = host_locate(input, a.shards, cfg.splitter_buckets, rank);
    const auto b = static_cast<std::size_t>(cfg.splitter_buckets);
    for (int d = 1; d < group.size(); ++d) {
        std::size_t elems = 0;
        for (std::size_t j = static_cast<std::size_t>(d); j < a.shards; j += 4) {
            elems += h.candidates[j] + h.rows[j][h.bucket];
        }
        EXPECT_EQ(group.link_bytes(d, 0), elems * sizeof(float) + 2 * b * sizeof(std::int32_t))
            << "device " << d;
    }
}

TEST(ShardedSelect, GatherFiltersTheLocatesLevels) {
    // Each device keeps the levels it counted in the locate, within the
    // kept-level budget, and the gather filters them without a recount.
    const auto input = random_floats(kBenchN, 127);
    for (const std::size_t rank : {std::size_t{0}, kBenchN / 3, kBenchN - 1}) {
        simt::DeviceGroup group(tiny_spec(4, kMiB));
        auto res = core::try_sharded_select<float>(group, input, rank, {});
        ASSERT_TRUE(res.ok()) << res.status().message;
        EXPECT_EQ(res.value().value, reference_select(input, rank)) << "rank " << rank;
        EXPECT_LE(res.value().acct.max_shard_aux_bytes, kMiB) << "rank " << rank;
        // One count launch per shard, two per device, up to the root's
        // descent, which starts after the last gather landing.
        for (int d = 0; d < group.size(); ++d) {
            const auto& prof = group.device(d).profiles();
            auto end = prof.end();
            if (d == 0) {
                end = std::find_if(prof.rbegin(), prof.rend(), [](const simt::KernelProfile& p) {
                          return p.name == "link_recv";
                      }).base();
            }
            EXPECT_EQ(count_launches(prof.begin(), end), 2u) << "rank " << rank << " device " << d;
        }
    }
    // 2^21 floats on 4 x 1 MiB: eight shards per device, and room for one
    // kept level besides the last shard's, so six shards per device recount.
    const std::size_t n = std::size_t{1} << 21;
    const auto big = random_floats(n, 128);
    for (const std::size_t rank : {std::size_t{0}, n / 3, n - 1}) {
        simt::DeviceGroup group(tiny_spec(4, kMiB));
        auto res = core::try_sharded_select<float>(group, big, rank, {});
        ASSERT_TRUE(res.ok()) << res.status().message;
        ASSERT_EQ(res.value().acct.shards, 32u);
        EXPECT_EQ(res.value().value, reference_select(big, rank)) << "rank " << rank;
        EXPECT_LE(res.value().acct.max_shard_aux_bytes, kMiB) << "rank " << rank;
        for (int d = 1; d < group.size(); ++d) {
            const auto& prof = group.device(d).profiles();
            EXPECT_EQ(count_launches(prof.begin(), prof.end()), 8u + 6u)
                << "rank " << rank << " device " << d;
        }
    }
}

TEST(ShardedSelect, RootLevelReusesTheMerge) {
    // The root's first level takes its tree from the merged candidates in
    // the located bucket and launches no sample, except in bucket 0, whose
    // lowest elements no tile samples.
    const auto input = random_floats(kBenchN, 129);
    for (const auto& [rank, samples] : {std::pair{kBenchN / 3, std::size_t{0}},
                                        std::pair{std::size_t{0}, std::size_t{1}}}) {
        simt::DeviceGroup group(tiny_spec(4, kMiB));
        auto res = core::try_sharded_select<float>(group, input, rank, {});
        ASSERT_TRUE(res.ok()) << res.status().message;
        EXPECT_EQ(res.value().value, reference_select(input, rank)) << "rank " << rank;
        const auto& root = group.device(0).profiles();
        const auto sb = std::find_if(root.begin(), root.end(), [](const simt::KernelProfile& p) {
            return p.name == "select_bucket";
        });
        ASSERT_NE(sb, root.end());
        EXPECT_EQ(launches_named(sb, root.end(), "sample"), samples) << "rank " << rank;
    }
}

// ---- injected faults ----------------------------------------------------------

TEST(ShardedSelect, InjectedFaultsNeverEscape) {
    // Every allocation, launch and transfer of a sharded call runs under the
    // bounded fault retry: a call returns the exact answer or a typed status,
    // and never throws.
    const std::size_t n = std::size_t{1} << 17;
    const std::size_t rank = n / 3;
    const std::size_t k = 1000;
    const auto input = random_floats(n, 117);
    std::vector<float> sorted = input;
    std::sort(sorted.begin(), sorted.end());
    const auto typed = [](core::SelectError e) {
        return e == core::SelectError::launch_failed || e == core::SelectError::allocation_failed;
    };
    int faulted = 0;
    for (const bool launch : {true, false}) {
        for (std::uint64_t seed = 1; seed <= 40; ++seed) {
            simt::DeviceGroup group(tiny_spec(2));
            for (int d = 0; d < group.size(); ++d) {
                simt::FaultSpec spec;
                spec.seed = seed * 16 + static_cast<std::uint64_t>(d);
                (launch ? spec.launch_rate : spec.alloc_rate) = 0.01;
                group.device(d).set_faults(spec);
            }
            const std::string where =
                std::string(launch ? "launch" : "alloc") + " seed " + std::to_string(seed);
            try {
                auto sel = core::try_sharded_select<float>(group, input, rank, {});
                if (sel.ok()) {
                    EXPECT_EQ(sel.value().value, sorted[rank]) << where;
                } else {
                    EXPECT_TRUE(typed(sel.error())) << where << ": " << sel.status().message;
                }
                auto apx = core::try_sharded_approx_select<float>(group, input, rank, {});
                if (apx.ok()) {
                    const auto lo = static_cast<std::size_t>(
                        std::lower_bound(sorted.begin(), sorted.end(), apx.value().value) -
                        sorted.begin());
                    const auto hi = static_cast<std::size_t>(
                        std::upper_bound(sorted.begin(), sorted.end(), apx.value().value) -
                        sorted.begin());
                    const std::size_t err = rank < lo ? lo - rank : (rank >= hi ? rank - hi + 1 : 0);
                    EXPECT_LE(err, apx.value().rank_error_bound) << where;
                } else {
                    EXPECT_TRUE(typed(apx.error())) << where << ": " << apx.status().message;
                }
                auto top = core::try_sharded_topk<float>(group, input, k, {});
                if (top.ok()) {
                    std::vector<float> got = top.value().elements;
                    std::sort(got.begin(), got.end());
                    EXPECT_TRUE(std::equal(got.begin(), got.end(), sorted.end() - k)) << where;
                } else {
                    EXPECT_TRUE(typed(top.error())) << where << ": " << top.status().message;
                }
            } catch (const std::exception& e) {
                ADD_FAILURE() << where << ": escaped " << e.what();
            }
            for (int d = 0; d < group.size(); ++d) {
                const auto& fc = group.device(d).fault_counters();
                faulted += static_cast<int>(fc.launch_faults + fc.alloc_faults);
            }
        }
    }
    EXPECT_GT(faulted, 0) << "the schedules injected no fault";
}

// ---- the tile bound ----------------------------------------------------------

/// The candidate count |C| and the skew bound of the tile sample, computed
/// from the shard layout as docs/sharding.md states it: shards of near-equal
/// size, tiles of 4096, s_t = min(4 b, n_t) candidates per tile, and
/// skew_bound = (2 ceil(|C| / b_eff) + T) * max_t ceil(n_t / (s_t + 1)).
std::pair<std::size_t, std::size_t> tile_bound(std::size_t n, std::size_t shards, int b) {
    const auto per_tile = static_cast<std::size_t>(4 * b);
    std::size_t cand = 0;
    std::size_t tiles = 0;
    std::size_t stride = 0;
    for (std::size_t j = 0; j < shards; ++j) {
        const std::size_t nj = n / shards + (j < n % shards ? 1 : 0);
        for (std::size_t begin = 0; begin < nj; begin += 4096) {
            const std::size_t nt = std::min<std::size_t>(4096, nj - begin);
            const std::size_t st = std::min(per_tile, nt);
            cand += st;
            ++tiles;
            stride = std::max(stride, (nt + st) / (st + 1));
        }
    }
    auto beff = static_cast<std::size_t>(b);
    while (beff > 2 && beff > cand + 1) beff /= 2;
    return {cand, (2 * ((cand + beff - 1) / beff) + tiles) * stride};
}

template <typename T>
void check_tile_bound(data::Distribution dist, std::size_t distinct, int devices,
                      std::size_t capacity, std::size_t n) {
    const auto input = data::generate<T>(
        {.n = n, .dist = dist, .distinct_values = distinct, .seed = 118});
    simt::DeviceGroup group(tiny_spec(devices, capacity));
    const ShardSelectConfig cfg;
    const std::string where = data::to_string(dist) + "/" + std::to_string(distinct) + " n " +
                              std::to_string(n) + " on " + std::to_string(devices) + " x " +
                              std::to_string(capacity) + " B, " + std::to_string(sizeof(T)) +
                              "-byte keys";
    for (const std::size_t rank : {std::size_t{0}, n / 3, n - 1}) {
        auto res = core::try_sharded_select<T>(group, input, rank, cfg);
        ASSERT_TRUE(res.ok()) << where << ": " << res.status().message;
        EXPECT_EQ(res.value().value, reference_select(input, rank)) << where << " rank " << rank;
        const core::ShardAccounting& a = res.value().acct;
        ASSERT_GE(a.shards, 2u) << where;
        const auto [cand, bound] = tile_bound(n, a.shards, cfg.splitter_buckets);
        EXPECT_EQ(a.merge_candidates, cand) << where;
        EXPECT_EQ(a.skew_bound, bound) << where;
        EXPECT_LE(a.max_bucket, a.skew_bound) << where;
        EXPECT_LE(a.max_shard_aux_bytes, capacity) << where;
    }
}

TEST(ShardedSelect, TileBoundHoldsOnAdversarialInputs) {
    struct Input {
        data::Distribution dist;
        std::size_t distinct;
    };
    const Input inputs[] = {
        {data::Distribution::uniform_real, 0},      {data::Distribution::sorted_ascending, 0},
        {data::Distribution::sorted_descending, 0}, {data::Distribution::uniform_distinct, 1},
        {data::Distribution::uniform_distinct, 2},  {data::Distribution::zipf, 0},
    };
    for (const Input& in : inputs) {
        for (const auto& [devices, capacity] :
             {std::pair{2, kTinyCapacity}, std::pair{4, kMiB}}) {
            // Half the group's memory, plus a ragged tail: several shards
            // per device, the last tile of each shard short.
            const std::size_t bytes = static_cast<std::size_t>(devices) * capacity / 2;
            check_tile_bound<float>(in.dist, in.distinct, devices, capacity,
                                    bytes / sizeof(float) + 37);
            check_tile_bound<double>(in.dist, in.distinct, devices, capacity,
                                     bytes / sizeof(double) + 37);
        }
    }
}

TEST(ShardedSelect, TileBoundScalesWithTilesAt32Shards) {
    // 2^21 floats on 4 x 1 MiB: 32 shards of 16 tiles, where the candidate
    // set grows with the tiles rather than with the shards.
    check_tile_bound<float>(data::Distribution::uniform_real, 0, 4, kMiB,
                            std::size_t{1} << 21);
}

TEST(ShardedSelect, RejectsAnInputWhoseMergeCannotFitDeviceZero) {
    // 2^23 floats on 4 x 1 MiB: 128 shards whose tile sample holds 262,144
    // candidates (1 MiB) and bounds a bucket at 589,824 floats (2.25 MiB).
    // Neither fits device 0, so every front-end fails in its prologue.
    const std::size_t n = std::size_t{1} << 23;
    const auto input = random_floats(n, 20);
    simt::DeviceGroup group(tiny_spec(4, kMiB));
    const auto [cand, bound] = tile_bound(n, 128, ShardSelectConfig{}.splitter_buckets);
    EXPECT_EQ(cand * sizeof(float), kMiB);
    EXPECT_EQ(bound * sizeof(float), 9 * kMiB / 4);
    const ShardSelectConfig cfg;
    std::vector<std::uint64_t> launches;
    for (int d = 0; d < group.size(); ++d) launches.push_back(group.device(d).launch_count());
    EXPECT_EQ(core::try_sharded_select<float>(group, input, n / 3, cfg).error(),
              core::SelectError::invalid_argument);
    EXPECT_EQ(core::try_sharded_approx_select<float>(group, input, n / 3, cfg).error(),
              core::SelectError::invalid_argument);
    EXPECT_EQ(core::try_sharded_topk<float>(group, input, 100, cfg).error(),
              core::SelectError::invalid_argument);
    for (int d = 0; d < group.size(); ++d) {
        EXPECT_EQ(group.device(d).launch_count(), launches[static_cast<std::size_t>(d)])
            << "device " << d;
    }
}

TEST(ShardedSelect, RejectsAGatherThatCannotFitDeviceZero) {
    // 10x the 64 KiB capacity in floats: 40 one-tile shards, so the merge
    // fits (2 |C| = 10,240 floats, 40 KiB), but a bucket at skew_bound
    // (11,520 floats, 45 KiB) next to one staged shard's level does not.
    // Exact select and top-k gather, so they fail before any launch;
    // approximate select only merges and runs.
    const std::size_t n = 10 * kTinyCapacity / sizeof(float);
    const auto input = random_floats(n, 125);
    simt::DeviceGroup group(tiny_spec(2));
    const auto [cand, bound] = tile_bound(n, 40, ShardSelectConfig{}.splitter_buckets);
    EXPECT_EQ(2 * cand * sizeof(float), 40 * std::size_t{1024});
    EXPECT_EQ(bound, 11520u);
    const ShardSelectConfig cfg;
    EXPECT_EQ(core::try_sharded_select<float>(group, input, n / 3, cfg).error(),
              core::SelectError::invalid_argument);
    EXPECT_EQ(core::try_sharded_topk<float>(group, input, 100, cfg).error(),
              core::SelectError::invalid_argument);
    for (int d = 0; d < group.size(); ++d) EXPECT_EQ(group.device(d).launch_count(), 0u);
    auto approx = core::try_sharded_approx_select<float>(group, input, n / 3, cfg);
    ASSERT_TRUE(approx.ok()) << approx.status().message;
    EXPECT_EQ(approx.value().acct.shards, 40u);
    EXPECT_LE(approx.value().acct.max_shard_aux_bytes, group.mem_capacity_bytes());
}

// ---- approximate sharded selection ------------------------------------------

TEST(ShardedApprox, ErrorWithinReportedBound) {
    const std::size_t n = 70000;
    const auto input = random_floats(n, 109);
    simt::DeviceGroup group(tiny_spec(2));
    ShardSelectConfig cfg;
    for (const std::size_t rank : {n / 10, n / 2, 9 * n / 10}) {
        auto res = core::try_sharded_approx_select<float>(group, input, rank, cfg);
        ASSERT_TRUE(res.ok()) << res.status().message;
        const auto [lo, hi] = reference_rank_range(input, res.value().value);
        const std::size_t err = rank < lo ? lo - rank : (rank > hi ? rank - hi : 0);
        EXPECT_LE(err, res.value().rank_error_bound) << "rank " << rank;
        // The bound itself is splitter-granularity: never beyond one
        // bucket (+1 for the duplicate-splitter edge).
        EXPECT_LE(res.value().rank_error_bound, res.value().acct.skew_bound + 1);
    }
}

TEST(ShardedApprox, SingleShardStillAnswersWithBound) {
    const auto input = random_floats(3000, 110);
    simt::DeviceGroup group(tiny_spec(2));
    ShardSelectConfig cfg;
    auto res = core::try_sharded_approx_select<float>(group, input, 1500, cfg);
    ASSERT_TRUE(res.ok()) << res.status().message;
    const auto [lo, hi] = reference_rank_range(input, res.value().value);
    const std::size_t err = 1500 < lo ? lo - 1500 : (1500 > hi ? 1500 - hi : 0);
    EXPECT_LE(err, res.value().rank_error_bound);
    EXPECT_GT(res.value().acct.merge_candidates, 0u);
}

// ---- sharded top-k ----------------------------------------------------------

TEST(ShardedTopK, MatchesReferenceAcrossShards) {
    const std::size_t n = 90000;
    const std::size_t k = 257;
    const auto input = random_floats(n, 111);
    simt::DeviceGroup group(tiny_spec(2));
    ShardSelectConfig cfg;
    auto res = core::try_sharded_topk<float>(group, input, k, cfg);
    ASSERT_TRUE(res.ok()) << res.status().message;
    ASSERT_EQ(res.value().elements.size(), k);
    std::vector<float> ref = input;
    std::sort(ref.begin(), ref.end(), std::greater<>());
    EXPECT_EQ(res.value().threshold, ref[k - 1]);
    std::vector<float> got = res.value().elements;
    std::sort(got.begin(), got.end(), std::greater<>());
    for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(got[i], ref[i]) << "element " << i;
    EXPECT_GE(res.value().acct.shards, 8u);
    EXPECT_GT(res.value().acct.link_bytes, 0u);
}

TEST(ShardedTopK, NanTailAndGuards) {
    auto input = random_floats(50000, 112);
    input[7] = core::quiet_nan<float>();
    input[19] = core::quiet_nan<float>();
    simt::DeviceGroup group(tiny_spec(2));
    ShardSelectConfig cfg;
    cfg.select.nan_policy = core::NanPolicy::propagate_largest;
    // k within the NaN count: the whole top-k set is NaN.
    auto nan_only = core::try_sharded_topk<float>(group, input, 2, cfg);
    ASSERT_TRUE(nan_only.ok()) << nan_only.status().message;
    for (const float x : nan_only.value().elements) EXPECT_TRUE(std::isnan(x));

    // Mixed: NaNs ride along as the largest keys.
    auto mixed = core::try_sharded_topk<float>(group, input, 10, cfg);
    ASSERT_TRUE(mixed.ok()) << mixed.status().message;
    ASSERT_EQ(mixed.value().elements.size(), 10u);
    const std::size_t nans = static_cast<std::size_t>(
        std::count_if(mixed.value().elements.begin(), mixed.value().elements.end(),
                      [](float x) { return std::isnan(x); }));
    EXPECT_EQ(nans, 2u);

    // k == 0 and k > n are typed errors.
    EXPECT_EQ(core::try_sharded_topk<float>(group, input, 0, cfg).status().code,
              core::SelectError::rank_out_of_range);
    EXPECT_EQ(core::try_sharded_topk<float>(group, input, input.size() + 1, cfg).status().code,
              core::SelectError::rank_out_of_range);

    // A k beyond the per-shard staging budget cannot gather on the root.
    auto big = core::try_sharded_topk<float>(group, input, 20000, cfg);
    EXPECT_EQ(big.status().code, core::SelectError::invalid_argument);
}

// ---- streaming quantile sketch ----------------------------------------------

TEST(StreamingQuantileTest, BoundsHoldOverChunkedStream) {
    const std::size_t n = 64000;
    const auto data = random_floats(n, 113);
    simt::Device dev(simt::arch_v100());
    core::ShardSelectConfig cfg;
    cfg.splitter_buckets = 64;
    core::StreamingQuantile<float> sketch(dev, cfg);
    const std::size_t chunk = 9000;  // ragged: the last chunk is short
    for (std::size_t off = 0; off < n; off += chunk) {
        const std::size_t len = std::min(chunk, n - off);
        ASSERT_TRUE(sketch.observe(std::span<const float>(data).subspan(off, len)).ok());
    }
    EXPECT_EQ(sketch.observed(), n);
    EXPECT_GT(sketch.launches(), 0u);
    for (const double q : {0.01, 0.25, 0.5, 0.9, 0.999}) {
        auto est = sketch.quantile(q);
        ASSERT_TRUE(est.ok()) << est.status().message;
        const auto& e = est.value();
        const auto [lo, hi] = reference_rank_range(data, e.value);
        const std::size_t err = e.rank < lo ? lo - e.rank : (e.rank > hi ? e.rank - hi : 0);
        EXPECT_LE(err, e.rank_error_bound) << "q=" << q;
    }
}

TEST(StreamingQuantileTest, NanSkippingAndErrors) {
    simt::Device dev(simt::arch_v100());
    core::StreamingQuantile<float> sketch(dev);
    EXPECT_EQ(sketch.quantile(0.5).status().code, core::SelectError::empty_input);
    std::vector<float> chunk = {1.0f, core::quiet_nan<float>(), 3.0f, 2.0f};
    ASSERT_TRUE(sketch.observe(chunk).ok());
    EXPECT_EQ(sketch.observed(), 4u);
    EXPECT_EQ(sketch.nan_count(), 1u);
    EXPECT_EQ(sketch.quantile(1.5).status().code, core::SelectError::invalid_argument);
    auto est = sketch.quantile(0.5);
    ASSERT_TRUE(est.ok());
    EXPECT_EQ(est.value().n, 3u);
}

// ---- golden launch sequences ------------------------------------------------
//
// For fixed inputs, every launch on every device of a fresh group -- name,
// grid, block, origin, stream, counters, simulated duration and start --
// plus the per-link bytes, the transfer count, the answer and every
// ShardAccounting field fold into one FNV-1a hash per call (the style of
// test_descent_golden.cpp).  A rewrite of the sharded layer that changes
// what the group executes, moves over its links or checks out of its pools
// fails here first.

/// Random floats whose first quarter sits below every other element: a low
/// rank's bucket lives only in the first shards, and no top-k winner does.
std::vector<float> low_quarter_floats(std::size_t n, std::uint64_t seed) {
    auto v = random_floats(n, seed);
    for (std::size_t i = 0; i < n / 4; ++i) v[i] -= 5000.0f;
    return v;
}

void add_accounting(golden::Fnv1a& h, const core::ShardAccounting& a) {
    for (const std::size_t v : {a.shards, static_cast<std::size_t>(a.devices_used),
                                a.max_shard_elems, a.max_shard_aux_bytes, a.merge_candidates,
                                a.skew_bound, a.max_bucket, a.nan_count}) {
        h.add(static_cast<std::uint64_t>(v));
    }
    h.add(a.link_bytes);
    h.add(a.sim_ns);
    h.add(a.launches);
}

/// Runs `call` on a fresh group of `devices`, then folds what the group
/// executed and moved into the hash `call` folded its answer into.
std::uint64_t shard_golden(int devices,
                           const std::function<void(simt::DeviceGroup&, golden::Fnv1a&)>& call) {
    simt::TopologySpec spec = tiny_spec(devices);
    spec.device_opts = golden::device_options();
    simt::DeviceGroup group(spec);
    golden::Fnv1a h;
    call(group, h);
    for (int d = 0; d < group.size(); ++d) {
        const simt::Device& dev = group.device(d);
        for (const simt::KernelProfile& p : dev.profiles()) {
            golden::add_profile(h, p);
            h.add(p.start_ns);
        }
        h.add(static_cast<std::uint64_t>(dev.profiles().size()));
        for (int to = 0; to < group.size(); ++to) h.add(group.link_bytes(d, to));
    }
    h.add(group.transfer_count());
    return h.value();
}

TEST(ShardGolden, ExactSelectTwoDevices) {
    // n / 8 falls in the low quarter: shards without the bucket are skipped.
    const std::size_t n = 40000;
    const auto input = low_quarter_floats(n, 120);
    const std::uint64_t hash = shard_golden(2, [&](simt::DeviceGroup& g, golden::Fnv1a& h) {
        auto res = core::try_sharded_select<float>(g, input, n / 8, {});
        ASSERT_TRUE(res.ok()) << res.status().message;
        EXPECT_EQ(res.value().value, reference_select(input, n / 8));
        h.add(res.value().value);
        h.add(static_cast<std::uint64_t>(res.value().equality_exit));
        add_accounting(h, res.value().acct);
    });
    EXPECT_EQ(hash, 0xdbcfc48414732ddfULL);
}

TEST(ShardGolden, ExactSelectFourDevicesMultiRoundGather) {
    const std::size_t n = 60000;
    data::Xoshiro256 rng(121);
    std::vector<double> input(n);
    // Exact arithmetic, so no build's floating-point contraction can
    // change the input (53-bit integers scaled by a power of two).
    for (auto& x : input) x = static_cast<double>(rng() >> 11) * 0x1p-33 - 0x1p19;
    ShardSelectConfig cfg;
    cfg.merge_fanin = 2;
    const std::uint64_t hash = shard_golden(4, [&](simt::DeviceGroup& g, golden::Fnv1a& h) {
        auto res = core::try_sharded_select<double>(g, input, n / 3, cfg);
        ASSERT_TRUE(res.ok()) << res.status().message;
        h.add(res.value().value);
        h.add(static_cast<std::uint64_t>(res.value().equality_exit));
        add_accounting(h, res.value().acct);
    });
    EXPECT_EQ(hash, 0x2a95cf86a27ed11aULL);
}

TEST(ShardGolden, ApproxSelect) {
    const std::size_t n = 40000;
    const auto input = random_floats(n, 122);
    const std::uint64_t hash = shard_golden(2, [&](simt::DeviceGroup& g, golden::Fnv1a& h) {
        auto res = core::try_sharded_approx_select<float>(g, input, n / 2, {});
        ASSERT_TRUE(res.ok()) << res.status().message;
        h.add(res.value().value);
        h.add(static_cast<std::uint64_t>(res.value().rank_error_bound));
        add_accounting(h, res.value().acct);
    });
    EXPECT_EQ(hash, 0xca37d95f46f5f888ULL);
}

TEST(ShardGolden, TopK) {
    // The low-quarter shards hold no winner, so their slices are empty.
    const std::size_t n = 40000;
    const auto input = low_quarter_floats(n, 123);
    const std::uint64_t hash = shard_golden(2, [&](simt::DeviceGroup& g, golden::Fnv1a& h) {
        auto res = core::try_sharded_topk<float>(g, input, 257, {});
        ASSERT_TRUE(res.ok()) << res.status().message;
        for (const float x : res.value().elements) h.add(x);
        h.add(res.value().threshold);
        add_accounting(h, res.value().acct);
    });
    EXPECT_EQ(hash, 0xd2771e6505ca6a3cULL);
}

TEST(ShardGolden, StreamingQuantileThreeChunks) {
    const auto input = random_floats(23000, 124);
    const std::uint64_t hash = shard_golden(1, [&](simt::DeviceGroup& g, golden::Fnv1a& h) {
        core::StreamingQuantile<float> sketch(g.device(0));
        const std::span<const float> all(input);
        for (const auto chunk : {all.first(9000), all.subspan(9000, 9000), all.subspan(18000)}) {
            ASSERT_TRUE(sketch.observe(chunk).ok());
        }
        for (const double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
            auto est = sketch.quantile(q);
            ASSERT_TRUE(est.ok()) << est.status().message;
            h.add(est.value().value);
            h.add(static_cast<std::uint64_t>(est.value().rank));
            h.add(static_cast<std::uint64_t>(est.value().rank_error_bound));
            h.add(static_cast<std::uint64_t>(est.value().n));
        }
        h.add(sketch.launches());
    });
    EXPECT_EQ(hash, 0xb20a12acd44e6ffcULL);
}

// ---- cross-device StreamSan ordering ----------------------------------------

/// One-block kernel reading every element of `buf` on `stream`.
void launch_read(simt::Device& dev, std::span<const float> buf, int stream) {
    dev.launch("consumer_read", {.grid_dim = 1, .block_dim = 32, .stream = stream},
               [buf](simt::BlockCtx& blk) {
                   blk.warp_tiles(buf.size(), [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                       float regs[simt::kWarpSize];
                       w.load(buf, base, regs);
                   });
               });
}

/// One-block kernel overwriting every element of `buf` on `stream`.
void launch_write(simt::Device& dev, std::span<float> buf, int stream) {
    dev.launch("producer_write", {.grid_dim = 1, .block_dim = 32, .stream = stream},
               [buf](simt::BlockCtx& blk) {
                   blk.warp_tiles(buf.size(), [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                       float regs[simt::kWarpSize] = {};
                       w.store(buf, base, regs);
                   });
               });
}

/// Runs `f` and returns the HazardKind of the StreamSanError it throws, or
/// nullopt if it completes cleanly.
template <typename F>
std::optional<HazardKind> hazard_kind_of(F&& f) {
    try {
        f();
    } catch (const StreamSanError& e) {
        return e.hazard().kind;
    }
    return std::nullopt;
}

TEST(ShardStreamSan, ReadingLandingBufferWithoutReadyEdgeIsRace) {
    simt::DeviceGroup group(tiny_spec(2));
    group.device(0).set_stream_sanitizer(StreamSanMode::strict);
    group.device(1).set_stream_sanitizer(StreamSanMode::strict);
    auto src = group.device(0).pooled<float>(256);
    auto dst = group.device(1).pooled<float>(256);
    for (std::size_t i = 0; i < 256; ++i) src[i] = static_cast<float>(i);
    (void)group.transfer<float>(0, std::span<const float>(src.span()), 0, 1, dst.span(), 0,
                                256, 0);
    // BROKEN: the merge consumes the peer's landing buffer without adopting
    // the transfer's ready event -- the link_recv write and this read are
    // unordered, exactly the hazard the sharded merges' wait_event prevents.
    EXPECT_EQ(hazard_kind_of([&] { launch_read(group.device(1), dst.span(), 0); }),
              HazardKind::read_write_race);
    group.synchronize_all();
}

TEST(ShardStreamSan, OverwritingSourceDuringSendIsRace) {
    simt::DeviceGroup group(tiny_spec(2));
    group.device(0).set_stream_sanitizer(StreamSanMode::strict);
    group.device(1).set_stream_sanitizer(StreamSanMode::strict);
    auto src = group.device(0).pooled<float>(256);
    auto dst = group.device(1).pooled<float>(256);
    for (std::size_t i = 0; i < 256; ++i) src[i] = static_cast<float>(i);
    (void)group.transfer<float>(0, std::span<const float>(src.span()), 0, 1, dst.span(), 0,
                                256, 0);
    // BROKEN: the producer reuses its staging buffer without waiting for
    // src_done -- the link_send read pass and this write are unordered.
    EXPECT_EQ(hazard_kind_of([&] { launch_write(group.device(0), src.span(), 0); }),
              HazardKind::read_write_race);
    group.synchronize_all();
}

TEST(ShardStreamSan, TransferEdgesMakeConsumptionClean) {
    simt::DeviceGroup group(tiny_spec(2));
    group.device(0).set_stream_sanitizer(StreamSanMode::strict);
    group.device(1).set_stream_sanitizer(StreamSanMode::strict);
    auto src = group.device(0).pooled<float>(256);
    auto dst = group.device(1).pooled<float>(256);
    for (std::size_t i = 0; i < 256; ++i) src[i] = static_cast<float>(i);
    const auto rec =
        group.transfer<float>(0, std::span<const float>(src.span()), 0, 1, dst.span(), 0, 256, 0);
    // CORRECT: adopt both edges, then consume and overwrite freely.
    group.device(1).wait_event(0, rec.ready_ns);
    launch_read(group.device(1), dst.span(), 0);
    group.device(0).wait_event(0, rec.src_done_ns);
    launch_write(group.device(0), src.span(), 0);
    group.synchronize_all();
    EXPECT_EQ(group.device(0).stream_sanitizer()->total_hazards(), 0u);
    EXPECT_EQ(group.device(1).stream_sanitizer()->total_hazards(), 0u);
    EXPECT_EQ(dst[255], 255.0f);
}

TEST(ShardStreamSan, ShardedSelectIsHazardFreeUnderStrictMode) {
    simt::DeviceGroup group(tiny_spec(2));
    group.device(0).set_stream_sanitizer(StreamSanMode::strict);
    group.device(1).set_stream_sanitizer(StreamSanMode::strict);
    const std::size_t n = 40000;
    const auto input = random_floats(n, 114);
    ShardSelectConfig cfg;
    auto res = core::try_sharded_select<float>(group, input, n / 2, cfg);
    ASSERT_TRUE(res.ok()) << res.status().message;
    EXPECT_EQ(res.value().value, reference_select(input, n / 2));
    EXPECT_EQ(group.device(0).stream_sanitizer()->total_hazards(), 0u);
    EXPECT_EQ(group.device(1).stream_sanitizer()->total_hazards(), 0u);
}

}  // namespace
