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

/// The bucket count b_eff that splitters at regular ranks cut a sorted set
/// of n elements into: `buckets` halved until the set can fill it (never
/// below 2).
int effective_buckets(std::size_t n, int buckets) {
    int b = buckets;
    while (b > 2 && static_cast<std::size_t>(b) > n + 1) b /= 2;
    return b;
}

/// The tile sample over `shards` near-equal shards of n elements (the
/// chunks ShardEnv cuts): the candidate count |C| and the bound on any
/// non-equality global bucket, (2 ceil(|C| / b_eff) + T) * max_t
/// ceil(n_t / (s_t + 1)) over the T tiles.  A non-equality bucket holds
/// fewer than 2 ceil(|C| / b_eff) candidates: at most that gap up to its
/// upper splitter, plus the ties of its lower splitter that sort before
/// that splitter's position (fewer than the gap, or the splitter would
/// repeat and get an equality bucket).  Each of them, and each tile once,
/// stands for at most one rank stride of its tile's elements.  Both
/// numbers follow from the shard sizes alone.
struct TileBound {
    std::size_t candidates = 0;
    std::size_t skew_bound = 0;
};

TileBound tile_bound(std::size_t n, std::size_t shards, int splitter_buckets) {
    const auto per_tile = static_cast<std::size_t>(4 * splitter_buckets);
    TileBound tb;
    std::size_t tiles = 0;
    std::size_t stride = 0;
    for (std::size_t j = 0; j < shards; ++j) {
        const TileSample shape{.n = n / shards + (j < n % shards ? 1 : 0), .per_tile = per_tile};
        for (std::size_t t = 0; t < shape.tiles(); ++t) stride = std::max(stride, shape.stride(t));
        tiles += shape.tiles();
        tb.candidates += shape.total();
    }
    const auto b = static_cast<std::size_t>(effective_buckets(tb.candidates, splitter_buckets));
    tb.skew_bound = (2 * ((tb.candidates + b - 1) / b) + tiles) * stride;
    return tb;
}

/// Whether device 0 can hold a multi-shard call's merge and gather, from
/// sizes alone (docs/sharding.md, "What device 0 holds"), and how many
/// counted levels besides its last shard's each device may keep from the
/// locate for the gather.  The merge holds |C| candidates on device 0, in
/// the buffer its own tile samples went to, next to one staged shard in the
/// candidate phase: 2 |C| within capacity covers both, as a staged shard
/// takes at most a quarter of it.  A gather (`gathers`: exact select and
/// top-k) holds the rank's bucket, at most skew_bound elements, next to one
/// staged shard's counted level; each kept level fills the room left with
/// its scratch, its shard re-staged only for its filter.
template <typename T>
Result<std::size_t> check_root_fits(const simt::DeviceGroup& group, const ShardSelectConfig& cfg,
                                    const ShardPlan& plan, const TileBound& tb, bool gathers) {
    const std::size_t capacity = group.mem_capacity_bytes();
    if (2 * tb.candidates * sizeof(T) > capacity) {
        return Status::failure(SelectError::invalid_argument,
                               "sharded select: the splitter merge cannot fit device 0");
    }
    if (!gathers) return std::size_t{0};
    SampleSelectConfig shard_cfg = cfg.select;
    shard_cfg.num_buckets = cfg.splitter_buckets;
    const std::size_t scratch =
        PipelinePlan::make(group.device(0), plan.shard_elems, shard_cfg).scratch_bytes();
    const std::size_t held = (tb.skew_bound + plan.shard_elems) * sizeof(T) + scratch;
    if (held > capacity) {
        return Status::failure(SelectError::invalid_argument,
                               "sharded select: the rank's bucket cannot fit device 0");
    }
    return (capacity - held) / scratch;
}

/// What the prologue every sharded front-end shares decided.
struct Opening {
    std::size_t nan = 0;      ///< NaN keys in the input
    std::size_t clean_n = 0;  ///< non-NaN elements
    ShardPlan plan;
    std::size_t skew_bound = 0;  ///< the plan's TileBound, reported once the merge runs
    /// Counted levels a device keeps for the gather besides its last
    /// shard's (check_root_fits); 0 when the front-end does not gather.
    std::size_t kept_levels = 0;
};

/// The shared prologue, in its fixed check order: config validation, the
/// front-end's own `range` check, NaN rejection under NanPolicy::reject,
/// the shard-count plan for the non-NaN elements, then, for several
/// shards, whether device 0 can hold the merge and, when the front-end
/// `gathers`, the rank's bucket.  A pure decision: no stream is leased, no
/// planner event recorded and nothing launched until ShardEnv opens.
template <typename T>
Result<Opening> open_shards(const simt::DeviceGroup& group, std::span<const T> input,
                            const ShardSelectConfig& cfg, Status range, bool gathers) {
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
    const TileBound tb = tile_bound(o.clean_n, o.plan.shards, cfg.splitter_buckets);
    o.skew_bound = tb.skew_bound;
    if (o.plan.shards > 1) {
        Result<std::size_t> kept = check_root_fits<T>(group, cfg, o.plan, tb, gathers);
        if (!kept.ok()) return kept.status();
        o.kept_levels = kept.value();
    }
    return o;
}

/// Ranks of the splitters cut from a sorted set of n >= 1 elements at
/// regular gaps: b_eff - 1 of them.
std::vector<std::size_t> regular_ranks(std::size_t n, int buckets) {
    const int b = effective_buckets(n, buckets);
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
    std::vector<int> stream;     ///< leased compute stream per used device
    std::size_t total_n = 0;      ///< non-NaN elements over all shards
    std::size_t skew_bound = 0;   ///< the opening's TileBound
    std::size_t kept_levels = 0;  ///< the opening's kept-level budget per device
    ShardAccounting acct;         ///< merge fields set by the passes, the rest by finish()

    double t0 = 0.0;
    std::uint64_t bytes0 = 0;
    std::vector<std::uint64_t> launches0;  ///< per device, all of them
    std::vector<std::size_t> peak_start;   ///< per used device
    std::vector<std::size_t> peak_seen;

    /// Marks the measurement baselines, leases one stream per used device
    /// and starts it at the group clock, cuts the non-NaN elements of
    /// `input` into near-equal contiguous chunks placed round-robin over the
    /// used devices, and records the call's descent for `planner_k` on
    /// device 0.
    ShardEnv(simt::DeviceGroup& g, const ShardSelectConfig& c, std::span<const T> input,
             const Opening& o, std::size_t planner_k)
        : ShardEnv(g, c) {
        // Delegated: a throw from here on still runs the destructor, which
        // returns the streams leased so far.
        const std::size_t shards = o.plan.shards;
        total_n = o.clean_n;
        skew_bound = o.skew_bound;
        kept_levels = o.kept_levels;
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
        record_descent(group.device(0), {Descent::sample, o.plan.reason}, total_n, planner_k,
                       stream[0]);
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
    /// dst[dst_base...] on device `to`, and adopts the send's edge: `from`'s
    /// leased stream waits for the send, so the source may be released.
    /// Returns the landing's ready event, which `to`'s leased stream must
    /// wait on before it reads the landing.
    template <typename U>
    [[nodiscard]] Result<double> post(int from, std::span<const U> src, int to, std::span<U> dst,
                                      std::size_t dst_base) {
        simt::TransferRecord rec;
        Status st = retry(from, [&] {
            rec = group.template transfer<U>(from, src, 0, to, dst, dst_base, src.size(),
                                             stream_of(from));
        });
        if (!st.ok()) return st;
        group.device(from).wait_event(stream_of(from), rec.src_done_ns);
        return rec.ready_ns;
    }
    /// post(), with `to`'s leased stream waiting for the landing at once.
    template <typename U>
    [[nodiscard]] Status send(int from, std::span<const U> src, int to, std::span<U> dst,
                              std::size_t dst_base) {
        Result<double> ready = post(from, src, to, dst, dst_base);
        if (!ready.ok()) return ready.status();
        group.device(to).wait_event(stream_of(to), ready.value());
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

/// A counted level a device keeps from the locate for the gather: the
/// oracles and block offsets a filter needs and, for the device's last
/// shard, its staging.  Its totals row went to the locate's count table,
/// which is gone by the gather: the gather sizes its slices from the
/// host's copy of the rows.
template <typename T>
struct KeptLevel {
    DataHolder<T> data;  ///< the shard, still staged; empty: the gather re-stages it
    LevelOutcome<T> level;
};

/// Where a rank fell among the merged global splitters.
template <typename T>
struct Located {
    std::vector<SearchTree<T>> tree;     ///< merged splitter tree, one copy per used device
    std::vector<T> candidates;           ///< the merged splitter candidates, sorted
    std::vector<std::int64_t> prefix;    ///< exclusive global bucket prefix, size b + 1
    std::vector<std::size_t> in_bucket;  ///< per shard: its elements in the located bucket
    std::size_t bucket = 0;
    /// Root stream clock when the host learned `bucket`: the end of
    /// select_bucket, or the arrival of the last totals on the int64 path.
    double located_ns = 0.0;
    /// Per shard, the level the gather filters without a recount.
    std::vector<std::optional<KeptLevel<T>>> kept;
};

/// One node of the candidate merge: a device's candidate buffer, sized for
/// every candidate of the merge group the device leads, and how many of
/// them it holds so far.
template <typename T>
struct CandidateNode {
    int dev = 0;
    simt::PooledBuffer<T> buf;
    std::size_t fill = 0;
};

/// The merge's fan-in schedule over `active`, the nodes in device order:
/// each round cuts them into runs of `fanin`, and `land(run)` lands the
/// other nodes of a run of two or more in its first, the leader, in order.
/// The leaders go on to the next round until one node is left.
template <typename Node, typename Land>
Status merge_rounds(std::vector<Node>& active, std::size_t fanin, Land land) {
    while (active.size() > 1) {
        std::vector<Node> next;
        for (std::size_t g = 0; g < active.size(); g += fanin) {
            const std::size_t end = std::min(active.size(), g + fanin);
            if (end - g > 1) {
                if (Status st = land(std::span<Node>(active).subspan(g, end - g)); !st.ok()) {
                    return st;
                }
            }
            next.push_back(std::move(active[g]));
        }
        active = std::move(next);
    }
    return Status::success();
}

/// Phase A: every shard is staged and cut into tiles of
/// bitonic::kMaxSortSize elements; one `sample` launch sorts each tile in
/// shared memory and writes s_t = min(4 * splitter_buckets, n_t) of its
/// elements, at regular ranks, into its device's candidate buffer.  A
/// deterministic regular sample of locally sorted sources (parallel sorting
/// by regular sampling), not a random one.  Each buffer is sized from the
/// merge's schedule for the group its device leads, so the merge lands its
/// members in place.  Returns one node per used device.
template <typename T>
Result<std::vector<CandidateNode<T>>> shard_candidates(ShardEnv<T>& env) {
    const auto per_tile = static_cast<std::size_t>(4 * env.cfg.splitter_buckets);
    const auto devices = static_cast<std::size_t>(env.devices_used);
    std::vector<std::size_t> own(devices, 0);
    for (std::size_t j = 0; j < env.chunks.size(); ++j) {
        const TileSample shape{.n = env.chunks[j].size(), .per_tile = per_tile};
        own[static_cast<std::size_t>(env.shard_dev[j])] += shape.total();
    }
    // The schedule run on sizes alone: the room each leader's group needs.
    std::vector<CandidateNode<T>> cand;
    for (int d = 0; d < env.devices_used; ++d) {
        const std::size_t n = own[static_cast<std::size_t>(d)];
        if (n > 0) cand.push_back({d, {}, n});
    }
    std::vector<std::size_t> room = own;
    (void)merge_rounds(cand, static_cast<std::size_t>(env.cfg.merge_fanin),
                       [&](std::span<CandidateNode<T>> run) {
                           for (const auto& m : run.subspan(1)) run[0].fill += m.fill;
                           room[static_cast<std::size_t>(run[0].dev)] = run[0].fill;
                           return Status::success();
                       });
    cand.clear();
    cand.resize(devices);
    for (int d = 0; d < env.devices_used; ++d) {
        const auto i = static_cast<std::size_t>(d);
        cand[i].dev = d;
        if (room[i] == 0) continue;
        auto buf = env.template checkout<T>(d, room[i]);
        if (!buf.ok()) return buf.status();
        cand[i].buf = buf.take();
    }
    for (std::size_t j = 0; j < env.chunks.size(); ++j) {
        const auto& chunk = env.chunks[j];
        if (chunk.empty()) continue;
        const int d = env.shard_dev[j];
        CandidateNode<T>& node = cand[static_cast<std::size_t>(d)];
        const TileSample shape{.n = chunk.size(), .per_tile = per_tile};
        const std::span<T> dst = node.buf.span().subspan(node.fill, shape.total());
        const SampleSelectConfig sc = env.on_device(d);
        const PipelineContext ctx(env.group.device(d), sc, sc.stream);
        Status st = with_fault_retry(ctx, [&] {
            auto staged = DataHolder<T>::stage(ctx, chunk);
            sample_sorted_tiles<T>(ctx.dev(), std::span<const T>(staged.span()), shape, dst,
                                   simt::LaunchOrigin::host, ctx.stream());
        });
        if (!st.ok()) return st;
        env.sample_peaks();
        node.fill += shape.total();
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

/// Phase B0: hierarchical candidate gather.  The candidate nodes are
/// merged toward device 0 in rounds of `merge_fanin`; every hop is a real
/// DeviceGroup::transfer into the leader's buffer, whose ready/src-done
/// events order the landing and the source release.  The merged set is
/// sorted on the host (|C| is tiny next to n), kept in `loc.candidates`,
/// and cut into global splitters at regular candidate gaps, which the root
/// then broadcasts so every used device builds the same SearchTree.
template <typename T>
Status merge_candidates(ShardEnv<T>& env, std::vector<CandidateNode<T>>& cand, Located<T>& loc) {
    std::vector<CandidateNode<T>> active;
    for (auto& node : cand) {
        if (node.fill > 0) active.push_back(std::move(node));
    }
    if (active.empty()) {
        return Status::failure(SelectError::internal, "sharded merge produced no candidates");
    }
    Status st = merge_rounds(
        active, static_cast<std::size_t>(env.cfg.merge_fanin),
        [&](std::span<CandidateNode<T>> run) -> Status {
            CandidateNode<T>& leader = run[0];
            for (CandidateNode<T>& mem : run.subspan(1)) {
                // The leader reads after the landing write; the member's
                // buffer is released only after the send finished.
                if (Status s = env.send(mem.dev, std::span<const T>(mem.buf.span().first(mem.fill)),
                                        leader.dev, leader.buf.span(), leader.fill);
                    !s.ok()) {
                    return s;
                }
                leader.fill += mem.fill;
                mem.buf = {};
            }
            env.sample_peaks();
            return Status::success();
        });
    if (!st.ok()) return st;
    CandidateNode<T>& root = active.front();
    if (root.dev != 0) {
        return Status::failure(SelectError::internal,
                               "candidate merge did not land on the root device");
    }
    std::vector<T>& merged = loc.candidates;
    merged.assign(root.buf.span().begin(),
                  root.buf.span().begin() + static_cast<std::ptrdiff_t>(root.fill));
    std::sort(merged.begin(), merged.end(), [](T a, T b) { return total_less(a, b); });
    std::vector<T> splitters;
    for (const std::size_t r : regular_ranks(merged.size(), env.cfg.splitter_buckets)) {
        splitters.push_back(merged[r]);
    }
    env.acct.merge_candidates = merged.size();
    env.acct.skew_bound = env.skew_bound;
    st = broadcast_tree(
        env, splitters, [](std::vector<T> s) { return SearchTree<T>::build(std::move(s)); },
        loc.tree);
    root.buf = {};
    env.sample_peaks();
    return st;
}

/// Phase B1: out-of-core count.  Every shard is re-staged and counted
/// against its device's copy of the merged tree, and its b int32 totals go
/// to its row of one count table on device 0, a device's rows one run.
/// Device 0's levels write their rows in place; every other device counts
/// its shards into one buffer and sends it once, after its last shard.
/// Device 0 waits for those landings only before select_bucket, which sums
/// the table's columns and locates `rank`.  The host reads every row as
/// well and sums the rows in int64; it locates `rank` itself when the
/// global n exceeds int32.  With `keep`, each device keeps for the gather
/// its last shard's level, still staged, and the levels of up to
/// env.kept_levels of its other shards, all counted with the oracles and
/// block offsets a filter needs.
template <typename T>
Status count_shards(ShardEnv<T>& env, std::size_t rank, bool keep, Located<T>& loc) {
    const std::size_t shards = env.chunks.size();
    const auto devices = static_cast<std::size_t>(env.devices_used);
    const auto b = static_cast<std::size_t>(loc.tree[0].num_buckets);
    std::vector<std::size_t> row(shards, 0);
    std::vector<std::size_t> first_row(devices + 1, 0);
    std::vector<std::size_t> last(devices, shards);
    for (std::size_t d = 0; d < devices; ++d) {
        first_row[d + 1] = first_row[d];
        for (std::size_t j = 0; j < shards; ++j) {
            if (static_cast<std::size_t>(env.shard_dev[j]) != d || env.chunks[j].empty()) continue;
            row[j] = first_row[d + 1]++;
            last[d] = j;
        }
    }
    // counts[0] is the whole table; counts[d] holds device d's rows.
    std::vector<simt::PooledBuffer<std::int32_t>> counts(devices);
    for (std::size_t d = 0; d < devices; ++d) {
        const std::size_t rows = d == 0 ? first_row[devices] : first_row[d + 1] - first_row[d];
        if (rows == 0) continue;
        auto got = env.template checkout<std::int32_t>(static_cast<int>(d), rows * b);
        if (!got.ok()) return got.status();
        counts[d] = got.take();
    }
    std::vector<std::vector<std::int64_t>> shard_totals(shards, std::vector<std::int64_t>(b, 0));
    std::vector<std::int64_t> totals(b, 0);
    std::vector<double> landings;  ///< ready events of the rows sent to device 0
    std::vector<std::size_t> kept_on(devices, 0);
    loc.kept.resize(shards);

    for (std::size_t j = 0; j < shards; ++j) {
        const auto& chunk = env.chunks[j];
        if (chunk.empty()) continue;
        const int d = env.shard_dev[j];
        const auto i = static_cast<std::size_t>(d);
        const bool last_shard = last[i] == j;
        const bool kept = keep && (last_shard || kept_on[i] < env.kept_levels);
        const std::span<std::int32_t> counted_row =
            counts[i].span().subspan((row[j] - (d == 0 ? 0 : first_row[i])) * b, b);
        simt::Device& dev = env.group.device(d);
        SampleSelectConfig sc = env.on_device(d);
        sc.num_buckets = static_cast<int>(b);
        PipelineContext ctx(dev, sc, sc.stream);
        DataHolder<T> staged;
        std::optional<LevelOutcome<T>> lv;
        Status st = with_fault_retry(ctx, [&] {
            lv.reset();
            staged = DataHolder<T>::stage(ctx, chunk);
            lv.emplace(finish_level<T>(ctx, std::span<const T>(staged.span()), 0,
                                       simt::LaunchOrigin::host, loc.tree[i],
                                       kept ? kCountForFilter : kCountOnly, counted_row));
        });
        if (!st.ok()) return st;
        env.sample_peaks();
        const std::span<const std::int32_t> counted = lv->totals_span();
        for (std::size_t k = 0; k < b; ++k) {
            shard_totals[j][k] = counted[k];
            totals[k] += counted[k];
        }
        if (kept) {
            if (!last_shard) ++kept_on[i];
            lv->totals_row = {};
            loc.kept[j].emplace(KeptLevel<T>{
                .data = last_shard ? std::move(staged) : DataHolder<T>{}, .level = std::move(*lv)});
        }
        if (d != 0 && last_shard) {
            // The rows travel to the root like any other payload, so the
            // link cost is modeled even though the values are already
            // host-visible.
            Result<double> ready =
                env.post(d, std::span<const std::int32_t>(counts[i].span()), 0, counts[0].span(),
                         first_row[i] * b);
            if (!ready.ok()) return ready.status();
            landings.push_back(ready.value());
        }
    }

    simt::Device& rdev = env.group.device(0);
    const int rstream = env.stream_of(0);
    for (const double ready : landings) rdev.wait_event(rstream, ready);
    loc.prefix = prefix_sums(totals);
    if (loc.prefix[b] != static_cast<std::int64_t>(env.total_n)) {
        return Status::failure(SelectError::internal, "sharded count lost elements");
    }
    if (loc.prefix[b] <= std::numeric_limits<std::int32_t>::max()) {
        // The table's rows were counted by several devices, so no device
        // kernel counted the totals last: a one-block select_bucket launch
        // sums them and runs the locate the single-device levels run in
        // their reduce's epilogue (Sec. IV-E).
        Status st = env.retry(0, [&] {
            auto dpre = rdev.pooled<std::int32_t>(b + 1, rstream);
            loc.bucket = static_cast<std::size_t>(
                select_bucket_kernel(rdev, std::span<const std::int32_t>(counts[0].span()),
                                     dpre.span(), rank, simt::LaunchOrigin::host, rstream));
        });
        if (!st.ok()) return st;
        env.sample_peaks();
    } else {
        loc.bucket = locate_bucket(loc.prefix, rank);
    }
    loc.located_ns = rdev.stream_clock(rstream);
    for (const auto& r : shard_totals) {
        loc.in_bucket.push_back(static_cast<std::size_t>(r[loc.bucket]));
    }
    const auto& eq = loc.tree[0].equality;
    for (std::size_t k = 0; k < b; ++k) {
        if (eq[k]) continue;
        env.acct.max_bucket = std::max(env.acct.max_bucket, static_cast<std::size_t>(totals[k]));
    }
    return Status::success();
}

/// Candidates -> merge -> count: locates `rank` among the merged global
/// splitters, keeping counted levels for the gather when `keep`.
template <typename T>
Result<Located<T>> locate(ShardEnv<T>& env, std::size_t rank, bool keep) {
    Result<std::vector<CandidateNode<T>>> cand = shard_candidates(env);
    if (!cand.ok()) return cand.status();
    Located<T> loc;
    if (Status st = merge_candidates(env, cand.value(), loc); !st.ok()) return st;
    if (Status st = count_shards(env, rank, keep, loc); !st.ok()) return st;
    return loc;
}

/// Phase B2: filter one bucket out of every shard and gather it onto
/// device 0, device by device.  Device 0's shards filter straight into
/// `out`; every other device filters all its shards' slices into one buffer
/// and sends it with one transfer.  Each device's stream first advances to
/// `start_ns`, when the host learned `bucket`.  A shard with a `kept` level
/// is filtered without a recount, the one still staged first and every
/// other one re-staged (a host copy), and its level goes right after its
/// filter; every other shard is re-staged and counted for the filter.
/// `known[j]`, when given, is shard j's count of the bucket from the
/// locate: it sizes each device's slice, and a shard that holds none is not
/// staged.  Without it, each shard's own count places its slice at a
/// running offset in a slice of the room left in `out`.  Returns the
/// elements gathered.
template <typename T>
Result<std::size_t> gather_bucket(ShardEnv<T>& env, const std::vector<SearchTree<T>>& tree,
                                  std::int32_t bucket, std::span<const std::size_t> known,
                                  std::vector<std::optional<KeptLevel<T>>> kept, double start_ns,
                                  simt::PooledBuffer<T>& out) {
    kept.resize(env.chunks.size());
    std::size_t off = 0;
    for (int d = 0; d < env.devices_used; ++d) {
        simt::Device& dev = env.group.device(d);
        dev.advance_stream(env.stream_of(d), start_ns);
        std::vector<std::size_t> order;
        std::size_t room = known.empty() ? out.size() - off : 0;
        for (std::size_t j = 0; j < env.chunks.size(); ++j) {
            if (env.shard_dev[j] != d || env.chunks[j].empty()) continue;
            if (!known.empty()) room += known[j];
            if (!known.empty() && known[j] == 0) {
                kept[j].reset();
            } else if (kept[j] && !kept[j]->data.empty()) {
                order.insert(order.begin(), j);
            } else {
                order.push_back(j);
            }
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
            std::optional<KeptLevel<T>>& keep = kept[j];
            std::size_t q = 0;
            Status st = with_fault_retry(ctx, [&] {
                DataHolder<T> staged;
                std::optional<LevelOutcome<T>> fresh;
                if (!keep || keep->data.empty()) staged = DataHolder<T>::stage(ctx, env.chunks[j]);
                if (!keep) {
                    fresh.emplace(finish_level<T>(ctx, std::span<const T>(staged.span()), 0,
                                                  simt::LaunchOrigin::host, dtree,
                                                  kCountForFilter));
                }
                const LevelOutcome<T>& lv = keep ? keep->level : *fresh;
                const auto ub = static_cast<std::size_t>(bucket);
                q = known.empty() ? static_cast<std::size_t>(lv.totals_span()[ub]) : known[j];
                if (q == 0 || used + q > dst.size()) return;
                const bool still_staged = keep && !keep->data.empty();
                filter_bucket<T>(ctx, still_staged ? keep->data.span() : staged.span(), lv, bucket,
                                 dst.subspan(used, q), simt::LaunchOrigin::host);
            });
            if (!st.ok()) return st;
            keep.reset();
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

/// The root descent's first tree, cut at regular ranks from the merged
/// candidates in the located bucket: a regular sample of it, as the
/// global splitters are of the input.  None under force_fallback (its
/// level takes a pivot tripartition), for bucket 0 (no tile samples its
/// lowest stride of elements, so they would crowd the lowest sub-bucket),
/// or when the bucket holds fewer than cfg.num_buckets - 1 candidates.
template <typename T>
std::optional<SearchTree<T>> root_tree(const Located<T>& loc, const SampleSelectConfig& cfg) {
    if (cfg.force_fallback || loc.bucket == 0) return std::nullopt;
    const SearchTree<T>& tree = loc.tree[0];
    const auto bkt = static_cast<std::int32_t>(loc.bucket);
    // The candidates are sorted, so the bucket's are one run.
    const auto lo = std::partition_point(loc.candidates.begin(), loc.candidates.end(),
                                         [&](T x) { return tree.find_bucket(x) < bkt; });
    const auto hi = std::partition_point(lo, loc.candidates.end(),
                                         [&](T x) { return tree.find_bucket(x) == bkt; });
    const auto m = static_cast<std::size_t>(hi - lo);
    if (m + 1 < static_cast<std::size_t>(cfg.num_buckets)) return std::nullopt;
    std::vector<T> splitters;
    for (const std::size_t r : regular_ranks(m, cfg.num_buckets)) {
        splitters.push_back(lo[static_cast<std::ptrdiff_t>(r)]);
    }
    return SearchTree<T>::build(std::move(splitters));
}

/// The exact selection over an opened env: a single shard takes the
/// single-device front-end on the leased stream; several shards locate the
/// rank's global bucket, gather it onto device 0 and finish the descent
/// there, its first level cut from the merge (root_tree).  The accounting
/// is left to the caller.
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
                                         rank - rank_offset, rcfg, env.stream_of(0),
                                         root_tree(loc, rcfg));
    if (!r.ok()) return r.status();
    env.sample_peaks();
    out.value = r.value().value;
    return out;
}

}  // namespace

ShardPlan plan_shard_count(std::size_t n, std::size_t elem_size,
                           std::size_t device_capacity_bytes, int num_devices) {
    ShardPlan p;
    const auto staging_bytes = static_cast<std::size_t>(
        static_cast<double>(device_capacity_bytes) * kShardStagingFraction);
    std::size_t budget = elem_size > 0 ? staging_bytes / elem_size : staging_bytes;
    if (budget == 0) budget = 1;
    p.shard_elems = budget;
    if (n <= budget) {
        p.shards = 1;
        p.reason = "fits one device";
        return p;
    }
    p.shards = (n + budget - 1) / budget;
    p.reason = "exceeds per-device staging budget";
    // With little oversubscription, spreading over all devices shrinks the
    // critical path at no extra merge cost (the candidate fan-in already
    // visits every used device).
    const auto devices = static_cast<std::size_t>(num_devices < 1 ? 1 : num_devices);
    if (p.shards < devices && devices > 1) {
        p.shards = devices;
        p.reason = "spread over all devices";
    }
    if (p.shards > n) p.shards = n;  // never cut below one element per shard
    p.shard_elems = (n + p.shards - 1) / p.shards;
    return p;
}

template <typename T>
Result<ShardedSelectResult<T>> try_sharded_select(simt::DeviceGroup& group,
                                                  std::span<const T> input, std::size_t rank,
                                                  const ShardSelectConfig& cfg) {
    Result<Opening> o =
        open_shards(group, input, cfg, check_rank(input.size(), rank), /*gathers=*/true);
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
    Result<Opening> o =
        open_shards(group, input, cfg, check_rank(input.size(), rank), /*gathers=*/false);
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
    Result<Opening> o = open_shards(group, input, cfg, range, /*gathers=*/true);
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
