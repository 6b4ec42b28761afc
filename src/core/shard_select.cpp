#include "core/shard_select.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <tuple>
#include <utility>

#include "core/float_order.hpp"
#include "core/multiselect.hpp"
#include "core/opening.hpp"
#include "core/pipeline.hpp"
#include "core/planner.hpp"
#include "core/reduce_kernel.hpp"
#include "core/sample_kernel.hpp"
#include "core/sample_select.hpp"
#include "core/topk.hpp"

namespace gpusel::core {

namespace {

/// Level-executor options over a merged (not sampled) tree: the caller
/// already knows which bucket it wants, so no locate epilogue runs.  Count-
/// only passes skip the oracles and per-block offsets a filter needs.
constexpr LevelOptions kCountOnly{
    .write_oracles = false, .keep_block_offsets = false, .locate = false};
constexpr LevelOptions kCountForFilter{
    .write_oracles = true, .keep_block_offsets = true, .locate = false};

Status validate_shard_config(const ShardSelectConfig& cfg) {
    if (Status vs = cfg.select.validate(true); !vs.ok()) return vs;
    const int b = cfg.splitter_buckets;
    if (b < 2 || b > kMaxExactBuckets || (b & (b - 1)) != 0) {
        return Status::failure(SelectError::invalid_argument,
                               "splitter_buckets must be a power of two in [2, 256]");
    }
    if (cfg.merge_fanin < 2) {
        return Status::failure(SelectError::invalid_argument, "merge_fanin must be >= 2");
    }
    return Status::success();
}

/// Range check of the rank front-ends (exact and approximate select).
Status check_rank(std::size_t n, std::size_t rank) {
    if (n == 0) {
        return Status::failure(SelectError::empty_input, "sharded select of an empty input");
    }
    if (rank >= n) {
        return Status::failure(SelectError::rank_out_of_range, "rank exceeds the input size");
    }
    return Status::success();
}

/// What the prologue every sharded front-end shares decided.
struct Opening {
    std::size_t nan = 0;      ///< NaN keys in the input
    std::size_t clean_n = 0;  ///< non-NaN elements
    ShardPlan plan;
};

/// The shared prologue, in its fixed check order: config validation, the
/// front-end's own `range` check, NaN rejection under NanPolicy::reject,
/// then the shard-count plan for the non-NaN elements (a pure decision: no
/// stream is leased and no planner event recorded until ShardEnv opens).
template <typename T>
Result<Opening> open_shards(const simt::DeviceGroup& group, std::span<const T> input,
                            const ShardSelectConfig& cfg, Status range) {
    if (Status v = validate_shard_config(cfg); !v.ok()) return v;
    if (!range.ok()) return range;
    Opening o;
    o.nan = count_nan_keys(input);
    if (o.nan > 0 && cfg.select.nan_policy == NanPolicy::reject) {
        return Status::failure(SelectError::nan_keys_rejected,
                               "NaN keys present with NanPolicy::reject");
    }
    o.clean_n = input.size() - o.nan;
    o.plan = plan_shard_count(o.clean_n, sizeof(T), group.mem_capacity_bytes(), group.size());
    return o;
}

/// Ranks of the splitters cut from a sorted set of n >= 1 elements at
/// regular gaps: b_eff - 1 of them, where b_eff halves `buckets` until the
/// set can fill it (never below 2).
std::vector<std::size_t> regular_ranks(std::size_t n, int buckets) {
    int b = buckets;
    while (b > 2 && static_cast<std::size_t>(b) > n + 1) b /= 2;
    std::vector<std::size_t> ranks;
    ranks.reserve(static_cast<std::size_t>(b - 1));
    for (int t = 0; t + 1 < b; ++t) {
        std::size_t idx = (static_cast<std::size_t>(t + 1) * n) / static_cast<std::size_t>(b);
        if (idx > 0) --idx;
        if (idx >= n) idx = n - 1;
        ranks.push_back(idx);
    }
    return ranks;
}

/// Exclusive prefix sums of per-bucket totals (size b + 1).
std::vector<std::int64_t> prefix_sums(const std::vector<std::int64_t>& totals) {
    std::vector<std::int64_t> prefix(totals.size() + 1, 0);
    for (std::size_t i = 0; i < totals.size(); ++i) prefix[i + 1] = prefix[i] + totals[i];
    return prefix;
}

/// Host-side bucket locate over int64 prefix sums (the device kernel's
/// counters are 32-bit): the first bucket whose prefix end exceeds `rank`.
std::size_t locate_bucket(const std::vector<std::int64_t>& prefix, std::size_t rank) {
    const std::size_t b = prefix.size() - 1;
    for (std::size_t i = 0; i < b; ++i) {
        if (static_cast<std::int64_t>(rank) < prefix[i + 1]) return i;
    }
    return b - 1;
}

/// Splitter-edge answer for `rank`, which fell into bucket `bkt` of `tree`:
/// the bucket's lower splitter (the first splitter for bucket 0) and the
/// exact bound on its rank error, composed from the exact global bucket
/// counts `prefix`.  An equality bucket's splitter is the exact answer.
template <typename T>
std::pair<T, std::size_t> splitter_edge(const SearchTree<T>& tree,
                                        const std::vector<std::int64_t>& prefix, std::size_t bkt,
                                        std::size_t rank) {
    if (tree.equality[bkt]) return {tree.splitters[bkt - 1], 0};
    if (bkt == 0) return {tree.splitters[0], (static_cast<std::size_t>(prefix[1]) - rank) + 1};
    // Elements below splitters[bkt-1] number at most prefix[bkt] (exactly,
    // for a non-duplicated splitter); +1 absorbs the duplicated-splitter
    // `<=` tie at the edge.
    return {tree.splitters[bkt - 1], (rank - static_cast<std::size_t>(prefix[bkt])) + 1};
}

/// Per-call working state of a sharded selection: the NaN-free host chunks,
/// the shard -> device placement, one leased compute stream per used device,
/// and the baselines (clock, launches, link bytes, per-device aux peaks)
/// that become the ShardAccounting together with the merge fields the
/// passes fill in.  The destructor joins and returns every leased stream,
/// so error paths unwind cleanly.
template <typename T>
struct ShardEnv {
    simt::DeviceGroup& group;
    const ShardSelectConfig& cfg;
    std::vector<std::vector<T>> chunks;  ///< NaN-free host slices, one per shard
    std::vector<int> shard_dev;          ///< owning device per shard (j % devices_used)
    int devices_used = 0;
    std::vector<int> stream;  ///< leased compute stream per used device
    std::size_t total_n = 0;  ///< non-NaN elements over all shards
    ShardAccounting acct;     ///< merge fields set by the passes, the rest by finish()

    double t0 = 0.0;
    std::uint64_t bytes0 = 0;
    std::vector<std::uint64_t> launches0;  ///< per device, all of them
    std::vector<std::size_t> peak_start;   ///< per used device
    std::vector<std::size_t> peak_seen;

    /// Marks the measurement baselines, leases one stream per used device
    /// and starts it at the group clock, cuts the non-NaN elements of
    /// `input` into near-equal contiguous chunks placed round-robin over the
    /// used devices, and records the planner decision for `planner_k` on
    /// device 0.
    ShardEnv(simt::DeviceGroup& g, const ShardSelectConfig& c, std::span<const T> input,
             const Opening& o, std::size_t planner_k)
        : ShardEnv(g, c) {
        // Delegated: a throw from here on still runs the destructor, which
        // returns the streams leased so far.
        const std::size_t shards = o.plan.shards;
        total_n = o.clean_n;
        acct.nan_count = o.nan;
        devices_used = static_cast<int>(
            std::min<std::size_t>(shards, static_cast<std::size_t>(group.size())));
        t0 = group.elapsed_ns();
        bytes0 = group.total_link_bytes();
        for (int d = 0; d < group.size(); ++d) launches0.push_back(group.device(d).launch_count());
        for (int d = 0; d < devices_used; ++d) {
            simt::Device& dev = group.device(d);
            stream.push_back(dev.lease_stream());
            // The call starts when it is issued: a device that finished its
            // share of an earlier call sooner must not start this one ahead
            // of the group.  A scheduling fact, not an ordering edge.
            dev.advance_stream(stream.back(), t0);
            dev.tracker().set_baseline();
            peak_start.push_back(dev.tracker().current());
            peak_seen.push_back(dev.tracker().current());
        }
        chunks.resize(shards);
        shard_dev.resize(shards);
        const std::size_t base = total_n / shards;
        const std::size_t rem = total_n % shards;
        std::size_t src = 0;
        for (std::size_t j = 0; j < shards; ++j) {
            const std::size_t want = base + (j < rem ? 1 : 0);
            auto& ch = chunks[j];
            ch.reserve(want);
            while (ch.size() < want && src < input.size()) {
                const T x = input[src++];
                if (!is_nan_key(x)) ch.push_back(x);
            }
            shard_dev[j] = static_cast<int>(j % static_cast<std::size_t>(devices_used));
        }
        record_planned_decision(group.device(0), {BackendKind::sample, o.plan.reason},
                                total_n, planner_k, stream[0]);
    }
    ShardEnv(const ShardEnv&) = delete;
    ShardEnv& operator=(const ShardEnv&) = delete;
    ~ShardEnv() {
        for (std::size_t d = 0; d < stream.size(); ++d) {
            simt::Device& dev = group.device(static_cast<int>(d));
            dev.synchronize();  // leased streams must be joined before return
            dev.release_stream(stream[d]);
        }
    }

    /// The pipeline config on device d's leased stream.
    [[nodiscard]] SampleSelectConfig on_device(int d) const {
        SampleSelectConfig c = cfg.select;
        c.stream = stream_of(d);
        return c;
    }
    [[nodiscard]] int stream_of(int d) const { return stream[static_cast<std::size_t>(d)]; }

    /// Runs `step` on device d under the bounded fault retry of the
    /// single-device passes (with_fault_retry).  Every allocation, launch
    /// and transfer of a sharded call runs under one, so an injected fault
    /// is retried or becomes a typed status, never an exception.
    template <typename F>
    [[nodiscard]] Status retry(int d, F&& step) {
        const SampleSelectConfig c = on_device(d);
        return with_fault_retry(PipelineContext(group.device(d), c), std::forward<F>(step));
    }

    /// A pooled checkout of n Us on device d's leased stream.
    template <typename U>
    [[nodiscard]] Result<simt::PooledBuffer<U>> checkout(int d, std::size_t n) {
        simt::PooledBuffer<U> buf;
        if (Status st = retry(d, [&] { buf = group.device(d).template pooled<U>(n, stream_of(d)); });
            !st.ok()) {
            return st;
        }
        return buf;
    }

    /// Moves `src`, produced on device `from`'s leased stream, to
    /// dst[dst_base...] on device `to`, and adopts both edges of the
    /// transfer: `to`'s leased stream waits for the landing and `from`'s for
    /// the send, so the landing may be read and the source released.
    template <typename U>
    [[nodiscard]] Status send(int from, std::span<const U> src, int to, std::span<U> dst,
                              std::size_t dst_base) {
        simt::TransferRecord rec;
        Status st = retry(from, [&] {
            rec = group.template transfer<U>(from, src, 0, to, dst, dst_base, src.size(),
                                             stream_of(from));
        });
        if (!st.ok()) return st;
        group.device(to).wait_event(stream_of(to), rec.ready_ns);
        group.device(from).wait_event(stream_of(from), rec.src_done_ns);
        return Status::success();
    }

    /// Folds each used device's tracker peak into the running maximum.
    /// Nested front-ends reset the tracker baseline, so the peak must be
    /// sampled right after every nested call / phase step to be preserved.
    void sample_peaks() {
        for (int d = 0; d < devices_used; ++d) {
            auto& s = peak_seen[static_cast<std::size_t>(d)];
            s = std::max(s, group.device(d).tracker().peak());
        }
    }

    /// Joins every device and completes the accounting.
    ShardAccounting finish() {
        group.synchronize_all();
        sample_peaks();
        acct.shards = chunks.size();
        acct.devices_used = devices_used;
        for (const auto& c : chunks) {
            acct.max_shard_elems = std::max(acct.max_shard_elems, c.size());
        }
        for (int d = 0; d < devices_used; ++d) {
            const auto i = static_cast<std::size_t>(d);
            const std::size_t aux =
                peak_seen[i] > peak_start[i] ? peak_seen[i] - peak_start[i] : 0;
            acct.max_shard_aux_bytes = std::max(acct.max_shard_aux_bytes, aux);
        }
        acct.link_bytes = group.total_link_bytes() - bytes0;
        acct.sim_ns = group.elapsed_ns() - t0;
        for (int d = 0; d < group.size(); ++d) {
            acct.launches +=
                group.device(d).launch_count() - launches0[static_cast<std::size_t>(d)];
        }
        return acct;
    }

private:
    ShardEnv(simt::DeviceGroup& g, const ShardSelectConfig& c) : group(g), cfg(c) {}
};

/// Splitter candidates: one buffer per used device holding the tile samples
/// of its shards in shard order.  The buffers are the merge's per-device
/// nodes, so no candidate passes through the host before the root has them
/// all.
template <typename T>
struct Candidates {
    std::vector<simt::PooledBuffer<T>> per_device;
    std::size_t tiles = 0;       ///< T: sorted tiles over all shards
    std::size_t max_stride = 0;  ///< max_t ceil(n_t / (s_t + 1))
};

/// Phase A: every shard is staged and cut into tiles of
/// bitonic::kMaxSortSize elements; one `sample` launch sorts each tile in
/// shared memory and writes s_t = min(4 * splitter_buckets, n_t) of its
/// elements, at regular ranks, into its device's candidate buffer.  A
/// deterministic regular sample of locally sorted sources (parallel sorting
/// by regular sampling), not a random one.
template <typename T>
Result<Candidates<T>> shard_candidates(ShardEnv<T>& env) {
    const auto per_tile = static_cast<std::size_t>(4 * env.cfg.splitter_buckets);
    const auto devices = static_cast<std::size_t>(env.devices_used);
    Candidates<T> cand;
    cand.per_device.resize(devices);
    std::vector<std::size_t> fill(devices, 0);
    for (std::size_t j = 0; j < env.chunks.size(); ++j) {
        const TileSample shape{.n = env.chunks[j].size(), .per_tile = per_tile};
        for (std::size_t t = 0; t < shape.tiles(); ++t) {
            cand.max_stride = std::max(cand.max_stride, shape.stride(t));
        }
        cand.tiles += shape.tiles();
        fill[static_cast<std::size_t>(env.shard_dev[j])] += shape.total();
    }
    for (int d = 0; d < env.devices_used; ++d) {
        const auto i = static_cast<std::size_t>(d);
        if (fill[i] == 0) continue;
        auto buf = env.template checkout<T>(d, fill[i]);
        if (!buf.ok()) return buf.status();
        cand.per_device[i] = buf.take();
    }
    std::fill(fill.begin(), fill.end(), 0);
    for (std::size_t j = 0; j < env.chunks.size(); ++j) {
        const auto& chunk = env.chunks[j];
        if (chunk.empty()) continue;
        const int d = env.shard_dev[j];
        const auto i = static_cast<std::size_t>(d);
        const TileSample shape{.n = chunk.size(), .per_tile = per_tile};
        const std::span<T> dst = cand.per_device[i].span().subspan(fill[i], shape.total());
        const SampleSelectConfig sc = env.on_device(d);
        const PipelineContext ctx(env.group.device(d), sc, sc.stream);
        Status st = with_fault_retry(ctx, [&] {
            auto staged = DataHolder<T>::stage(ctx, chunk);
            sample_sorted_tiles<T>(ctx.dev(), std::span<const T>(staged.span()), shape, dst,
                                   simt::LaunchOrigin::host, ctx.stream());
        });
        if (!st.ok()) return st;
        env.sample_peaks();
        fill[i] += shape.total();
    }
    return cand;
}

/// Broadcast from device 0: the root builds its tree from `values` locally,
/// every other used device receives them over the link and builds its own
/// copy with `build`.  The root's staging buffer is released only after
/// the last send finished.
template <typename T, typename Build>
Status broadcast_tree(ShardEnv<T>& env, const std::vector<T>& values, Build build,
                      std::vector<SearchTree<T>>& tree) {
    tree.assign(static_cast<std::size_t>(env.devices_used), {});
    tree[0] = build(values);
    if (env.devices_used == 1) return Status::success();
    auto staged = env.template checkout<T>(0, values.size());
    if (!staged.ok()) return staged.status();
    std::copy(values.begin(), values.end(), staged.value().span().begin());
    for (int d = 1; d < env.devices_used; ++d) {
        auto landing = env.template checkout<T>(d, values.size());
        if (!landing.ok()) return landing.status();
        const std::span<T> got = landing.value().span();
        if (Status st = env.send(0, std::span<const T>(staged.value().span()), d, got, 0);
            !st.ok()) {
            return st;
        }
        tree[static_cast<std::size_t>(d)] = build(std::vector<T>(got.begin(), got.end()));
    }
    return Status::success();
}

/// Phase B0: hierarchical candidate gather.  The per-device candidate
/// buffers are merged toward device 0 in rounds of `merge_fanin`; every hop
/// is a real DeviceGroup::transfer whose ready/src-done events order the
/// gather writes and the source releases.  The merged set is sorted on the
/// host (|C| is tiny next to n) and cut into global splitters at regular
/// candidate gaps, which the root then broadcasts so every used device
/// builds the same SearchTree.
template <typename T>
Status merge_candidates(ShardEnv<T>& env, Candidates<T>& cand, std::vector<SearchTree<T>>& tree) {
    struct Node {
        int dev = 0;
        simt::PooledBuffer<T> buf;
    };
    std::vector<Node> active;
    for (int d = 0; d < env.devices_used; ++d) {
        auto& buf = cand.per_device[static_cast<std::size_t>(d)];
        if (!buf.empty()) active.push_back({d, std::move(buf)});
    }
    if (active.empty()) {
        return Status::failure(SelectError::internal, "sharded merge produced no candidates");
    }
    const auto fanin = static_cast<std::size_t>(env.cfg.merge_fanin);
    while (active.size() > 1) {
        std::vector<Node> next;
        for (std::size_t g = 0; g < active.size(); g += fanin) {
            const std::size_t end = std::min(active.size(), g + fanin);
            if (end - g == 1) {
                next.push_back(std::move(active[g]));
                continue;
            }
            Node& leader = active[g];
            std::size_t total = 0;
            for (std::size_t m = g; m < end; ++m) total += active[m].buf.size();
            simt::Device& ldev = env.group.device(leader.dev);
            simt::PooledBuffer<T> gather;
            Status st = env.retry(leader.dev, [&] {
                gather = ldev.template pooled<T>(total, env.stream_of(leader.dev));
                launch_copy<T>(ldev, std::span<const T>(leader.buf.span()), 0, gather.span(), 0,
                               leader.buf.size(), simt::LaunchOrigin::host,
                               env.cfg.select.block_dim, env.stream_of(leader.dev));
            });
            if (!st.ok()) return st;
            std::size_t off = leader.buf.size();
            for (std::size_t m = g + 1; m < end; ++m) {
                Node& mem = active[m];
                // The leader reads after the landing write; the member's
                // buffer is released only after the send finished.
                st = env.send(mem.dev, std::span<const T>(mem.buf.span()), leader.dev,
                              gather.span(), off);
                if (!st.ok()) return st;
                off += mem.buf.size();
                mem.buf = {};
            }
            env.sample_peaks();
            leader.buf = {};
            next.push_back({leader.dev, std::move(gather)});
        }
        active = std::move(next);
    }
    Node& root = active.front();
    if (root.dev != 0) {
        return Status::failure(SelectError::internal,
                               "candidate merge did not land on the root device");
    }
    std::vector<T> merged(root.buf.span().begin(), root.buf.span().end());
    std::sort(merged.begin(), merged.end(), [](T a, T b) { return total_less(a, b); });
    std::vector<T> splitters;
    for (const std::size_t r : regular_ranks(merged.size(), env.cfg.splitter_buckets)) {
        splitters.push_back(merged[r]);
    }
    const std::size_t b = splitters.size() + 1;
    const std::size_t gap = (merged.size() + b - 1) / b;  // g = ceil(|C| / b_eff)
    env.acct.merge_candidates = merged.size();
    // A non-equality bucket holds fewer than 2g candidates: at most g up to
    // its upper splitter, plus the ties of its lower splitter that sort
    // before that splitter's position (fewer than g, or the splitter would
    // repeat and get an equality bucket).  Each of them, and each tile once,
    // stands for at most one rank stride of its tile's elements.
    env.acct.skew_bound = (2 * gap + cand.tiles) * cand.max_stride;
    Status st = broadcast_tree(
        env, splitters, [](std::vector<T> s) { return SearchTree<T>::build(std::move(s)); }, tree);
    root.buf = {};
    env.sample_peaks();
    return st;
}

/// A counted level a device keeps from the locate for the gather: its last
/// shard, still staged, with the oracles and block offsets a filter needs.
template <typename T>
struct KeptLevel {
    std::size_t shard = 0;
    DataHolder<T> data;
    LevelOutcome<T> level;
};

/// Where a rank fell among the merged global splitters.
template <typename T>
struct Located {
    std::vector<SearchTree<T>> tree;     ///< merged splitter tree, one copy per used device
    std::vector<std::int64_t> prefix;    ///< exclusive global bucket prefix, size b + 1
    std::vector<std::size_t> in_bucket;  ///< per shard: its elements in the located bucket
    std::size_t bucket = 0;
    /// Root stream clock when the host learned `bucket`: the end of
    /// select_bucket, or the arrival of the last totals on the int64 path.
    double located_ns = 0.0;
    /// Per used device, the level the gather filters without a recount.
    std::vector<std::optional<KeptLevel<T>>> kept;
};

/// Phase B1: out-of-core count.  Every shard is re-staged, counted against
/// its device's copy of the merged tree, and released before the next shard
/// touches the device; per-shard int32 counts travel to the root over the
/// link and accumulate in int64 (the global n may exceed int32).  Then
/// `rank`'s global bucket is located.  With `keep`, each device's last
/// shard is counted with oracles and block offsets, and its level stays
/// staged in `loc.kept` for the gather.
template <typename T>
Status count_shards(ShardEnv<T>& env, std::size_t rank, bool keep, Located<T>& loc) {
    const std::size_t shards = env.chunks.size();
    const auto b = static_cast<std::size_t>(loc.tree[0].num_buckets);
    std::vector<std::vector<std::int64_t>> shard_totals(shards, std::vector<std::int64_t>(b, 0));
    std::vector<std::int64_t> totals(b, 0);
    simt::Device& rdev = env.group.device(0);
    const int rstream = env.stream_of(0);
    simt::PooledBuffer<std::int32_t> landing;
    std::vector<std::size_t> last(static_cast<std::size_t>(env.devices_used), shards);
    for (std::size_t j = 0; j < shards; ++j) {
        if (!env.chunks[j].empty()) last[static_cast<std::size_t>(env.shard_dev[j])] = j;
    }
    loc.kept.resize(static_cast<std::size_t>(env.devices_used));

    for (std::size_t j = 0; j < shards; ++j) {
        const auto& chunk = env.chunks[j];
        if (chunk.empty()) continue;
        const int d = env.shard_dev[j];
        const bool kept = keep && last[static_cast<std::size_t>(d)] == j;
        simt::Device& dev = env.group.device(d);
        SampleSelectConfig sc = env.on_device(d);
        sc.num_buckets = static_cast<int>(b);
        PipelineContext ctx(dev, sc, sc.stream);
        // The level owns the device totals; it stays alive until their
        // transfer to the root is issued below.
        DataHolder<T> staged;
        std::optional<LevelOutcome<T>> lv;
        Status st = with_fault_retry(ctx, [&] {
            lv.reset();
            staged = DataHolder<T>::stage(ctx, chunk);
            lv.emplace(finish_level<T>(ctx, std::span<const T>(staged.span()), 0,
                                       simt::LaunchOrigin::host,
                                       loc.tree[static_cast<std::size_t>(d)],
                                       kept ? kCountForFilter : kCountOnly));
        });
        if (!st.ok()) return st;
        env.sample_peaks();
        for (std::size_t i = 0; i < b; ++i) {
            shard_totals[j][i] = lv->totals[i];
            totals[i] += lv->totals[i];
        }
        if (d != 0) {
            // The counts travel to the root like any other payload, so the
            // merge's link cost is modeled even though the values are
            // already host-visible.
            if (landing.empty()) {
                auto got = env.template checkout<std::int32_t>(0, b);
                if (!got.ok()) return got.status();
                landing = got.take();
            }
            if (Status s = env.send(d, lv->totals_span(), 0, landing.span(), 0); !s.ok()) {
                return s;
            }
        }
        if (kept) {
            loc.kept[static_cast<std::size_t>(d)].emplace(
                KeptLevel<T>{.shard = j, .data = std::move(staged), .level = std::move(*lv)});
        }
    }

    loc.prefix = prefix_sums(totals);
    if (loc.prefix[b] != static_cast<std::int64_t>(env.total_n)) {
        return Status::failure(SelectError::internal, "sharded count lost elements");
    }
    if (loc.prefix[b] <= std::numeric_limits<std::int32_t>::max()) {
        // The totals were summed on the host, so no device kernel counted
        // them last: a one-block select_bucket launch runs the locate the
        // single-device levels run in their reduce's epilogue (Sec. IV-E).
        Status st = env.retry(0, [&] {
            auto dtot = rdev.pooled<std::int32_t>(b, rstream);
            for (std::size_t i = 0; i < b; ++i) dtot[i] = static_cast<std::int32_t>(totals[i]);
            auto dpre = rdev.pooled<std::int32_t>(b + 1, rstream);
            loc.bucket = static_cast<std::size_t>(
                select_bucket_kernel(rdev, std::span<const std::int32_t>(dtot.span()),
                                     dpre.span(), rank, simt::LaunchOrigin::host, rstream));
        });
        if (!st.ok()) return st;
        env.sample_peaks();
    } else {
        loc.bucket = locate_bucket(loc.prefix, rank);
    }
    loc.located_ns = rdev.stream_clock(rstream);
    for (const auto& row : shard_totals) {
        loc.in_bucket.push_back(static_cast<std::size_t>(row[loc.bucket]));
    }
    const auto& eq = loc.tree[0].equality;
    for (std::size_t i = 0; i < b; ++i) {
        if (eq[i]) continue;
        env.acct.max_bucket = std::max(env.acct.max_bucket, static_cast<std::size_t>(totals[i]));
    }
    return Status::success();
}

/// Candidates -> merge -> count: locates `rank` among the merged global
/// splitters, keeping one counted level per device when `keep`.
template <typename T>
Result<Located<T>> locate(ShardEnv<T>& env, std::size_t rank, bool keep) {
    Result<Candidates<T>> cand = shard_candidates(env);
    if (!cand.ok()) return cand.status();
    Located<T> loc;
    if (Status st = merge_candidates(env, cand.value(), loc.tree); !st.ok()) return st;
    if (Status st = count_shards(env, rank, keep, loc); !st.ok()) return st;
    return loc;
}

/// Phase B2: filter one bucket out of every shard and gather it onto
/// device 0, device by device.  Device 0's shards filter straight into
/// `out`; every other device filters all its shards' slices into one buffer
/// and sends it with one transfer.  Each device's stream first advances to
/// `start_ns`, when the host learned `bucket`.  A device's `kept` level is
/// filtered first, without a recount; every other shard is re-staged and
/// counted for the filter.  `known[j]`, when given, is shard j's count of
/// the bucket from the locate: it sizes each device's slice, and a shard
/// that holds none is not staged.  Without it, each shard's own count
/// places its slice at a running offset in a slice of the room left in
/// `out`.  Returns the elements gathered.
template <typename T>
Result<std::size_t> gather_bucket(ShardEnv<T>& env, const std::vector<SearchTree<T>>& tree,
                                  std::int32_t bucket, std::span<const std::size_t> known,
                                  std::vector<std::optional<KeptLevel<T>>> kept, double start_ns,
                                  simt::PooledBuffer<T>& out) {
    kept.resize(static_cast<std::size_t>(env.devices_used));
    std::size_t off = 0;
    for (int d = 0; d < env.devices_used; ++d) {
        simt::Device& dev = env.group.device(d);
        dev.advance_stream(env.stream_of(d), start_ns);
        std::optional<KeptLevel<T>>& keep = kept[static_cast<std::size_t>(d)];
        std::vector<std::size_t> order;
        if (keep) order.push_back(keep->shard);
        std::size_t room = known.empty() ? out.size() - off : 0;
        for (std::size_t j = 0; j < env.chunks.size(); ++j) {
            if (env.shard_dev[j] != d || env.chunks[j].empty()) continue;
            if (!known.empty()) room += known[j];
            const bool skip = (keep && keep->shard == j) || (!known.empty() && known[j] == 0);
            if (!skip) order.push_back(j);
        }
        room = std::min(room, out.size() - off);
        simt::PooledBuffer<T> slice;
        std::span<T> dst;
        if (d == 0) {
            dst = out.span().subspan(off, room);
        } else if (room > 0 && !order.empty()) {
            auto got = env.template checkout<T>(d, room);
            if (!got.ok()) return got.status();
            slice = got.take();
            dst = slice.span();
        }
        const SearchTree<T>& dtree = tree[static_cast<std::size_t>(d)];
        SampleSelectConfig sc = env.on_device(d);
        sc.num_buckets = dtree.num_buckets;
        const PipelineContext ctx(dev, sc, sc.stream);
        std::size_t used = 0;
        for (const std::size_t j : order) {
            const bool reuse = keep && keep->shard == j;
            std::size_t q = 0;
            Status st = with_fault_retry(ctx, [&] {
                DataHolder<T> staged;
                std::optional<LevelOutcome<T>> fresh;
                if (!reuse) {
                    staged = DataHolder<T>::stage(ctx, env.chunks[j]);
                    fresh.emplace(finish_level<T>(ctx, std::span<const T>(staged.span()), 0,
                                                  simt::LaunchOrigin::host, dtree,
                                                  kCountForFilter));
                }
                const LevelOutcome<T>& lv = reuse ? keep->level : *fresh;
                q = static_cast<std::size_t>(lv.totals[static_cast<std::size_t>(bucket)]);
                if (q == 0 || used + q > dst.size()) return;
                filter_bucket<T>(ctx, reuse ? keep->data.span() : staged.span(), lv, bucket,
                                 dst.subspan(used, q), simt::LaunchOrigin::host);
            });
            if (!st.ok()) return st;
            if (reuse) keep.reset();  // the kept shard's staging goes first
            env.sample_peaks();
            if (used + q > dst.size()) {
                return Status::failure(SelectError::internal,
                                       "sharded gather overflowed its slice");
            }
            used += q;
        }
        if (d != 0 && used > 0) {
            if (Status st = env.send(d, std::span<const T>(dst.first(used)), 0, out.span(), off);
                !st.ok()) {
                return st;
            }
        }
        off += used;
    }
    return off;
}

/// The exact selection over an opened env: a single shard takes the
/// single-device front-end on the leased stream; several shards locate the
/// rank's global bucket, gather it onto device 0 and finish the descent
/// there.  The accounting is left to the caller.
template <typename T>
Result<ShardedSelectResult<T>> run_exact(ShardEnv<T>& env, std::size_t rank) {
    ShardedSelectResult<T> out;
    if (env.chunks.size() == 1) {
        auto r = try_sample_select<T>(env.group.device(0), std::span<const T>(env.chunks[0]),
                                      rank, env.on_device(0));
        if (!r.ok()) return r.status();
        env.sample_peaks();
        out.value = r.value().value;
        out.equality_exit = r.value().equality_exit;
        return out;
    }
    Result<Located<T>> found = locate(env, rank, true);
    if (!found.ok()) return found.status();
    Located<T>& loc = found.value();
    if (loc.tree[0].equality[loc.bucket]) {
        // The rank fell into a bucket that holds one repeated value.
        out.value = loc.tree[0].splitters[loc.bucket - 1];
        out.equality_exit = true;
        return out;
    }
    simt::Device& rdev = env.group.device(0);
    const auto rank_offset = static_cast<std::size_t>(loc.prefix[loc.bucket]);
    auto merged = env.template checkout<T>(
        0, static_cast<std::size_t>(loc.prefix[loc.bucket + 1]) - rank_offset);
    if (!merged.ok()) return merged.status();
    Result<std::size_t> got = gather_bucket(
        env, loc.tree, static_cast<std::int32_t>(loc.bucket),
        std::span<const std::size_t>(loc.in_bucket), std::move(loc.kept), loc.located_ns,
        merged.value());
    if (!got.ok()) return got.status();
    if (got.value() != merged.value().size()) {
        return Status::failure(SelectError::internal,
                               "sharded filter gathered a mis-sized bucket");
    }
    // The locate was the descent's first level, so the root's descent over
    // the gathered bucket continues below it and checks the deadline first.
    const SampleSelectConfig rcfg = env.on_device(0);
    if (Status s = check_deadline(PipelineContext(rdev, rcfg), DescentPath{.levels = 1},
                                  "sharded select");
        !s.ok()) {
        return s;
    }
    auto r = try_sample_select_staged<T>(rdev, DataHolder<T>::from_pooled(merged.take()),
                                         rank - rank_offset, rcfg, env.stream_of(0));
    if (!r.ok()) return r.status();
    env.sample_peaks();
    out.value = r.value().value;
    return out;
}

}  // namespace

template <typename T>
Result<ShardedSelectResult<T>> try_sharded_select(simt::DeviceGroup& group,
                                                  std::span<const T> input, std::size_t rank,
                                                  const ShardSelectConfig& cfg) {
    Result<Opening> o = open_shards(group, input, cfg, check_rank(input.size(), rank));
    if (!o.ok()) return o.status();
    if (rank >= o.value().clean_n) {
        // The rank falls inside the NaN tail: NaNs are the largest keys.
        return ShardedSelectResult<T>{.value = quiet_nan<T>(),
                                      .acct = {.nan_count = o.value().nan}};
    }
    ShardEnv<T> env(group, cfg, input, o.value(), rank);
    Result<ShardedSelectResult<T>> res = run_exact(env, rank);
    if (res.ok()) res.value().acct = env.finish();
    return res;
}

template <typename T>
Result<ShardedApproxSelectResult<T>> try_sharded_approx_select(simt::DeviceGroup& group,
                                                               std::span<const T> input,
                                                               std::size_t rank,
                                                               const ShardSelectConfig& cfg) {
    Result<Opening> o = open_shards(group, input, cfg, check_rank(input.size(), rank));
    if (!o.ok()) return o.status();
    if (rank >= o.value().clean_n) {
        return ShardedApproxSelectResult<T>{.value = quiet_nan<T>(),
                                            .acct = {.nan_count = o.value().nan}};
    }
    ShardEnv<T> env(group, cfg, input, o.value(), rank);
    // The approximate path always runs the merge machinery (even for one
    // shard): the splitter edges ARE the answer, and the exact per-shard
    // counts make the residual rank error exact.
    Result<Located<T>> loc = locate(env, rank, false);
    if (!loc.ok()) return loc.status();
    const auto [value, bound] =
        splitter_edge(loc.value().tree[0], loc.value().prefix, loc.value().bucket, rank);
    return ShardedApproxSelectResult<T>{
        .value = value, .rank_error_bound = bound, .acct = env.finish()};
}

template <typename T>
Result<ShardedTopKResult<T>> try_sharded_topk(simt::DeviceGroup& group, std::span<const T> input,
                                              std::size_t k, const ShardSelectConfig& cfg) {
    const Status range =
        k == 0 || k > input.size()
            ? Status::failure(SelectError::rank_out_of_range, "top-k k must be in [1, n]")
            : Status::success();
    Result<Opening> o = open_shards(group, input, cfg, range);
    if (!o.ok()) return o.status();
    const std::size_t nan = o.value().nan;
    ShardedTopKResult<T> res;
    if (k <= nan) {
        // NaNs are the largest keys: the whole top-k set is NaN.
        res.elements.assign(k, quiet_nan<T>());
        res.threshold = quiet_nan<T>();
        res.acct.nan_count = nan;
        return res;
    }
    const std::size_t kp = k - nan;  // non-NaN winners needed
    const ShardPlan& plan = o.value().plan;
    if (plan.shards > 1 && kp > plan.shard_elems) {
        return Status::failure(SelectError::invalid_argument,
                               "sharded top-k: k exceeds the per-shard staging budget (the "
                               "gathered result must fit the root device)");
    }
    ShardEnv<T> env(group, cfg, input, o.value(), kp);
    // The root's winner buffer outlives the final join, so its pool release
    // is stamped at the joined clock.
    simt::PooledBuffer<T> winners;
    if (plan.shards == 1) {
        auto r = try_topk_largest<T>(group.device(0), std::span<const T>(env.chunks[0]), kp,
                                     env.on_device(0));
        if (!r.ok()) return r.status();
        env.sample_peaks();
        res.elements = std::move(r.value().elements);
        res.threshold = r.value().threshold;
    } else {
        // Exact threshold: the kp-th largest non-NaN element.
        Result<ShardedSelectResult<T>> ex = run_exact(env, o.value().clean_n - kp);
        if (!ex.ok()) return ex.status();
        const T t = ex.value().value;
        // One tripartition pass over {t, t, t}: buckets 0-1 hold < t, bucket
        // 2 is the equality bucket == t, bucket 3 holds > t (exactly the
        // fallback level's layout; at most kp - 1 elements globally).  Only
        // t crosses the links.
        std::vector<SearchTree<T>> tri;
        Status st = broadcast_tree(
            env, std::vector<T>{t},
            [](std::vector<T> v) { return SearchTree<T>::build({v[0], v[0], v[0]}); }, tri);
        if (!st.ok()) return st;
        auto buf = env.template checkout<T>(0, kp);
        if (!buf.ok()) return buf.status();
        winners = buf.take();
        // The broadcast's ready edges already order every device after t.
        Result<std::size_t> got = gather_bucket<T>(env, tri, 3, {}, {}, 0.0, winners);
        if (!got.ok()) return got.status();
        res.elements.assign(winners.span().begin(),
                            winners.span().begin() + static_cast<std::ptrdiff_t>(got.value()));
        res.elements.resize(kp, t);  // pad with threshold copies (ties)
        res.threshold = t;
    }
    res.elements.insert(res.elements.end(), nan, quiet_nan<T>());
    res.acct = env.finish();
    return res;
}

template <typename T>
StreamingQuantile<T>::StreamingQuantile(simt::Device& dev, ShardSelectConfig cfg)
    : dev_(&dev), cfg_(std::move(cfg)) {}

template <typename T>
Status StreamingQuantile<T>::observe(std::span<const T> chunk) {
    if (Status v = validate_shard_config(cfg_); !v.ok()) return v;
    std::vector<T> clean;
    clean.reserve(chunk.size());
    for (const T x : chunk) {
        if (is_nan_key(x)) {
            ++nan_;
        } else {
            clean.push_back(x);
        }
    }
    if (clean.empty()) return Status::success();
    const std::uint64_t l0 = dev_->launch_count();
    if (!have_tree_) {
        // First chunk: its exact order statistics at regular ranks become
        // the fixed splitter tree every later chunk is counted against.
        const std::vector<std::size_t> ranks = regular_ranks(clean.size(), cfg_.splitter_buckets);
        std::vector<std::size_t> uniq = ranks;
        uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
        auto r = try_multi_select<T>(*dev_, std::span<const T>(clean), uniq, cfg_.select);
        if (!r.ok()) return r.status();
        const auto& vals = r.value().values;
        std::vector<T> spl;
        spl.reserve(ranks.size());
        for (const std::size_t rk : ranks) {
            const auto it = std::lower_bound(uniq.begin(), uniq.end(), rk);
            spl.push_back(vals[static_cast<std::size_t>(it - uniq.begin())]);
        }
        tree_ = SearchTree<T>::build(std::move(spl));
        have_tree_ = true;
        totals_.assign(static_cast<std::size_t>(tree_.num_buckets), 0);
    }
    // Every chunk (the first included) is one count pass against the tree.
    SampleSelectConfig cfgB = cfg_.select;
    cfgB.num_buckets = tree_.num_buckets;
    PipelineContext ctx(*dev_, cfgB);
    const auto b = static_cast<std::size_t>(tree_.num_buckets);
    std::vector<std::int32_t> host_totals(b, 0);
    Status st = with_fault_retry(ctx, [&] {
        auto staged = DataHolder<T>::stage(ctx, clean);
        const LevelOutcome<T> lv = finish_level<T>(ctx, std::span<const T>(staged.span()), 0,
                                                   simt::LaunchOrigin::host, tree_, kCountOnly);
        std::copy(lv.totals.span().begin(), lv.totals.span().end(), host_totals.begin());
    });
    if (!st.ok()) return st;
    for (std::size_t i = 0; i < b; ++i) totals_[i] += host_totals[i];
    n_ += clean.size();
    launches_ += dev_->launch_count() - l0;
    return Status::success();
}

template <typename T>
Result<typename StreamingQuantile<T>::Estimate> StreamingQuantile<T>::quantile(double q) const {
    if (!(q >= 0.0 && q <= 1.0)) {
        return Status::failure(SelectError::invalid_argument, "quantile q must be in [0, 1]");
    }
    if (n_ == 0) {
        return Status::failure(SelectError::empty_input, "no non-NaN elements observed");
    }
    Estimate e;
    e.n = n_;
    e.rank = static_cast<std::size_t>(q * static_cast<double>(n_ - 1));
    if (e.rank >= n_) e.rank = n_ - 1;
    const std::vector<std::int64_t> prefix = prefix_sums(totals_);
    std::tie(e.value, e.rank_error_bound) =
        splitter_edge(tree_, prefix, locate_bucket(prefix, e.rank), e.rank);
    return e;
}

template Result<ShardedSelectResult<float>> try_sharded_select<float>(
    simt::DeviceGroup&, std::span<const float>, std::size_t, const ShardSelectConfig&);
template Result<ShardedSelectResult<double>> try_sharded_select<double>(
    simt::DeviceGroup&, std::span<const double>, std::size_t, const ShardSelectConfig&);
template Result<ShardedTopKResult<float>> try_sharded_topk<float>(
    simt::DeviceGroup&, std::span<const float>, std::size_t, const ShardSelectConfig&);
template Result<ShardedTopKResult<double>> try_sharded_topk<double>(
    simt::DeviceGroup&, std::span<const double>, std::size_t, const ShardSelectConfig&);
template Result<ShardedApproxSelectResult<float>> try_sharded_approx_select<float>(
    simt::DeviceGroup&, std::span<const float>, std::size_t, const ShardSelectConfig&);
template Result<ShardedApproxSelectResult<double>> try_sharded_approx_select<double>(
    simt::DeviceGroup&, std::span<const double>, std::size_t, const ShardSelectConfig&);
template class StreamingQuantile<float>;
template class StreamingQuantile<double>;

}  // namespace gpusel::core
