#include "core/shard_select.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "core/float_order.hpp"
#include "core/multiselect.hpp"
#include "core/pipeline.hpp"
#include "core/planner.hpp"
#include "core/reduce_kernel.hpp"
#include "core/sample_select.hpp"
#include "core/topk.hpp"

namespace gpusel::core {

namespace {

/// Distinct per-shard sampling seeds (golden-ratio stepping), so the
/// per-shard descents never share a splitter sample stream.
constexpr std::uint64_t kShardSeedStep = 0x9e3779b97f4a7c15ull;

/// Level-executor options over a merged (not sampled) tree: the caller
/// already knows which bucket it wants, so no select_bucket runs.  Count-
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

/// Per-call working state of a sharded selection: the NaN-free host chunks,
/// the shard -> device placement, one leased compute stream per used device,
/// and the deltas (clock, launches, link bytes, per-device aux peaks) that
/// become the ShardAccounting.  The destructor joins and returns every
/// leased stream, so error paths unwind cleanly.
template <typename T>
struct ShardEnv {
    simt::DeviceGroup& group;
    const ShardSelectConfig& cfg;
    SampleSelectConfig sel;  ///< per-shard pipeline config; stream overridden per use

    std::vector<std::vector<T>> chunks;  ///< NaN-free host slices, one per shard
    std::vector<int> shard_dev;          ///< owning device per shard (j % devices_used)
    std::vector<std::size_t> stride;     ///< candidate rank stride w_j per shard
    int devices_used = 0;
    std::vector<int> stream;  ///< leased compute stream per used device
    std::size_t total_n = 0;  ///< non-NaN elements over all shards
    std::size_t nan = 0;

    double t0 = 0.0;
    std::uint64_t bytes0 = 0;
    std::vector<std::uint64_t> launches0;  ///< per device, all of them
    std::vector<std::size_t> peak_start;   ///< per used device
    std::vector<std::size_t> peak_seen;
    bool released = false;

    ShardEnv(simt::DeviceGroup& g, const ShardSelectConfig& c) : group(g), cfg(c), sel(c.select) {}
    ShardEnv(const ShardEnv&) = delete;
    ShardEnv& operator=(const ShardEnv&) = delete;
    ~ShardEnv() { release(); }

    void release() noexcept {
        if (released) return;
        released = true;
        for (int d = 0; d < devices_used; ++d) {
            simt::Device& dev = group.device(d);
            dev.synchronize();  // leased streams must be joined before return
            dev.release_stream(stream[static_cast<std::size_t>(d)]);
        }
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

    void finish(ShardAccounting& a) {
        group.synchronize_all();
        sample_peaks();
        a.shards = chunks.size();
        a.devices_used = devices_used;
        for (const auto& c : chunks) a.max_shard_elems = std::max(a.max_shard_elems, c.size());
        for (int d = 0; d < devices_used; ++d) {
            const auto i = static_cast<std::size_t>(d);
            const std::size_t aux =
                peak_seen[i] > peak_start[i] ? peak_seen[i] - peak_start[i] : 0;
            a.max_shard_aux_bytes = std::max(a.max_shard_aux_bytes, aux);
        }
        a.link_bytes = group.total_link_bytes() - bytes0;
        a.sim_ns = group.elapsed_ns() - t0;
        for (int d = 0; d < group.size(); ++d) {
            a.launches += group.device(d).launch_count() - launches0[static_cast<std::size_t>(d)];
        }
        a.nan_count = nan;
    }
};

/// Leases streams, marks the measurement baselines, and cuts the non-NaN
/// elements of `input` into near-equal contiguous chunks placed round-robin
/// over the used devices.
template <typename T>
void prepare_env(ShardEnv<T>& env, std::span<const T> input, const ShardPlan& plan) {
    const std::size_t shards = plan.shards;
    env.devices_used = static_cast<int>(
        std::min<std::size_t>(shards, static_cast<std::size_t>(env.group.size())));
    env.t0 = env.group.elapsed_ns();
    env.bytes0 = env.group.total_link_bytes();
    for (int d = 0; d < env.group.size(); ++d) {
        env.launches0.push_back(env.group.device(d).launch_count());
    }
    for (int d = 0; d < env.devices_used; ++d) {
        simt::Device& dev = env.group.device(d);
        env.stream.push_back(dev.lease_stream());
        dev.tracker().set_baseline();
        env.peak_start.push_back(dev.tracker().current());
        env.peak_seen.push_back(dev.tracker().current());
    }
    env.chunks.resize(shards);
    env.shard_dev.resize(shards);
    env.stride.assign(shards, 1);
    const std::size_t base = env.total_n / shards;
    const std::size_t rem = env.total_n % shards;
    std::size_t src = 0;
    for (std::size_t j = 0; j < shards; ++j) {
        const std::size_t want = base + (j < rem ? 1 : 0);
        auto& c = env.chunks[j];
        c.reserve(want);
        while (c.size() < want && src < input.size()) {
            const T x = input[src++];
            if (!is_nan_key(x)) c.push_back(x);
        }
        env.shard_dev[j] = static_cast<int>(j % static_cast<std::size_t>(env.devices_used));
    }
}

/// Phase A: every shard contributes s_j exact order statistics at regular
/// rank strides (a deterministic regular sample, not a random one) via a
/// multi-rank selection on its own device and stream.
template <typename T>
Status phase_candidates(ShardEnv<T>& env, std::vector<std::vector<T>>& cand) {
    cand.resize(env.chunks.size());
    for (std::size_t j = 0; j < env.chunks.size(); ++j) {
        const auto& chunk = env.chunks[j];
        const std::size_t nj = chunk.size();
        if (nj == 0) continue;
        const auto want = static_cast<std::size_t>(env.cfg.effective_splitters_per_shard());
        const std::size_t sj = std::min(want, nj);
        const std::size_t wj = (nj + sj) / (sj + 1);  // ceil(nj / (sj + 1)) >= 1
        env.stride[j] = wj;
        std::vector<std::size_t> ranks;
        ranks.reserve(sj);
        for (std::size_t i = 0; i < sj; ++i) {
            ranks.push_back(std::min(nj - 1, (i + 1) * wj - 1));
        }
        ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
        const int d = env.shard_dev[j];
        SampleSelectConfig cfgA = env.sel;
        cfgA.stream = env.stream[static_cast<std::size_t>(d)];
        cfgA.seed = env.sel.seed + (static_cast<std::uint64_t>(j) + 1) * kShardSeedStep;
        auto r = try_multi_select<T>(env.group.device(d), std::span<const T>(chunk), ranks, cfgA);
        if (!r.ok()) return r.status();
        cand[j] = std::move(r.value().values);
        env.sample_peaks();
    }
    return Status::success();
}

/// What the deterministic splitter merge produced.
template <typename T>
struct MergeState {
    std::vector<T> candidates;  ///< merged sorted candidate set C
    std::vector<T> splitters;   ///< b_eff - 1 global splitters
    int b_eff = 0;              ///< effective global bucket count
    std::size_t gap = 0;        ///< candidate gap g = ceil(|C| / b_eff)
    std::size_t skew_bound = 0;
    std::vector<SearchTree<T>> device_tree;  ///< per used device
};

/// Phase B0: hierarchical candidate gather.  Per-device candidate lists are
/// staged once, then merged toward device 0 in rounds of `merge_fanin`;
/// every hop is a real DeviceGroup::transfer whose ready/src-done events
/// order the gather writes and the source releases.  The merged set is
/// sorted on the host (|C| is tiny next to n) and cut into b_eff - 1 global
/// splitters at regular candidate gaps, which the root then broadcasts over
/// the links so every device builds the same SearchTree.
template <typename T>
Status merge_candidates(ShardEnv<T>& env, const std::vector<std::vector<T>>& cand,
                        MergeState<T>& ms) {
    struct Node {
        int dev = 0;
        std::optional<simt::PooledBuffer<T>> buf;
        std::size_t count = 0;
    };
    // Host-side concatenation per device (shards on one device share its
    // memory; only cross-device hops cost link traffic).
    std::vector<std::vector<T>> host(static_cast<std::size_t>(env.devices_used));
    for (std::size_t j = 0; j < cand.size(); ++j) {
        auto& h = host[static_cast<std::size_t>(env.shard_dev[j])];
        h.insert(h.end(), cand[j].begin(), cand[j].end());
    }
    std::vector<Node> active;
    for (int d = 0; d < env.devices_used; ++d) {
        const auto& h = host[static_cast<std::size_t>(d)];
        if (h.empty()) continue;
        Node nd;
        nd.dev = d;
        nd.count = h.size();
        nd.buf.emplace(
            env.group.device(d).template pooled<T>(h.size(), env.stream[static_cast<std::size_t>(d)]));
        std::copy(h.begin(), h.end(), nd.buf->span().begin());
        active.push_back(std::move(nd));
    }
    env.sample_peaks();
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
            for (std::size_t m = g; m < end; ++m) total += active[m].count;
            simt::Device& ldev = env.group.device(leader.dev);
            const int lstream = env.stream[static_cast<std::size_t>(leader.dev)];
            auto gather = ldev.pooled<T>(total, lstream);
            launch_copy<T>(ldev, std::span<const T>(leader.buf->span()), 0, gather.span(), 0,
                           leader.count, simt::LaunchOrigin::host, env.sel.block_dim, lstream);
            std::size_t off = leader.count;
            for (std::size_t m = g + 1; m < end; ++m) {
                Node& mem = active[m];
                const int mstream = env.stream[static_cast<std::size_t>(mem.dev)];
                const auto rec =
                    env.group.template transfer<T>(mem.dev, std::span<const T>(mem.buf->span()), 0,
                                          leader.dev, gather.span(), off, mem.count, mstream);
                // Leader-side consumers read after the landing write; the
                // member's buffer is released only after the send finished.
                ldev.wait_event(lstream, rec.ready_ns);
                env.group.device(mem.dev).wait_event(mstream, rec.src_done_ns);
                mem.buf.reset();
                off += mem.count;
            }
            env.sample_peaks();
            Node merged;
            merged.dev = leader.dev;
            merged.count = total;
            leader.buf.reset();
            merged.buf.emplace(std::move(gather));
            next.push_back(std::move(merged));
        }
        active = std::move(next);
    }
    Node& root = active.front();
    if (root.dev != 0) {
        return Status::failure(SelectError::internal,
                               "candidate merge did not land on the root device");
    }
    ms.candidates.assign(root.buf->span().begin(), root.buf->span().end());
    std::sort(ms.candidates.begin(), ms.candidates.end(),
              [](T a, T b) { return total_less(a, b); });
    const std::size_t csize = ms.candidates.size();
    int b = env.cfg.splitter_buckets;
    while (b > 2 && static_cast<std::size_t>(b) > csize + 1) b /= 2;
    ms.b_eff = b;
    ms.gap = (csize + static_cast<std::size_t>(b) - 1) / static_cast<std::size_t>(b);
    ms.splitters.reserve(static_cast<std::size_t>(b - 1));
    for (int t = 0; t + 1 < b; ++t) {
        std::size_t idx = (static_cast<std::size_t>(t + 1) * csize) / static_cast<std::size_t>(b);
        if (idx > 0) --idx;
        if (idx >= csize) idx = csize - 1;
        ms.splitters.push_back(ms.candidates[idx]);
    }
    std::size_t wmax = 0;
    for (const auto w : env.stride) wmax = std::max(wmax, w);
    ms.skew_bound = (ms.gap + env.chunks.size()) * wmax;

    // Broadcast: the root builds its tree locally, every other used device
    // receives the splitters over the link before building the same tree.
    ms.device_tree.resize(static_cast<std::size_t>(env.devices_used));
    ms.device_tree[0] = SearchTree<T>::build(ms.splitters);
    simt::Device& rdev = env.group.device(0);
    const int rstream = env.stream[0];
    if (env.devices_used > 1) {
        auto staged = rdev.pooled<T>(ms.splitters.size(), rstream);
        std::copy(ms.splitters.begin(), ms.splitters.end(), staged.span().begin());
        double last_src_done = 0.0;
        for (int d = 1; d < env.devices_used; ++d) {
            simt::Device& ddev = env.group.device(d);
            const int dstream = env.stream[static_cast<std::size_t>(d)];
            auto landing = ddev.pooled<T>(ms.splitters.size(), dstream);
            const auto rec = env.group.template transfer<T>(0, std::span<const T>(staged.span()), 0, d,
                                                   landing.span(), 0, ms.splitters.size(),
                                                   rstream);
            ddev.wait_event(dstream, rec.ready_ns);
            last_src_done = rec.src_done_ns;
            std::vector<T> got(landing.span().begin(), landing.span().end());
            ms.device_tree[static_cast<std::size_t>(d)] = SearchTree<T>::build(std::move(got));
        }
        rdev.wait_event(rstream, last_src_done);
    }
    root.buf.reset();
    env.sample_peaks();
    return Status::success();
}

/// Global bucket counts against the merged splitter tree.
struct CountOutcome {
    std::vector<std::vector<std::int64_t>> shard_totals;  ///< S x b_eff
    std::vector<std::int64_t> totals;                     ///< global per-bucket counts
    std::vector<std::int64_t> prefix;                     ///< exclusive prefix, size b_eff + 1
    std::int32_t bucket = -1;
    bool equality = false;
    std::size_t bucket_size = 0;
    std::size_t rank_offset = 0;
    std::size_t max_bucket = 0;  ///< largest non-equality bucket
};

/// Phase B1: out-of-core count.  Every shard is re-staged, counted against
/// its device's copy of the merged tree, and released before the next shard
/// touches the device; per-shard int32 counts travel to the root over the
/// link and accumulate in int64 (the global n may exceed int32).
template <typename T>
Status phase_count(ShardEnv<T>& env, const MergeState<T>& ms, std::size_t rank,
                   CountOutcome& out) {
    const std::size_t shards = env.chunks.size();
    const auto b = static_cast<std::size_t>(ms.b_eff);
    out.shard_totals.assign(shards, std::vector<std::int64_t>(b, 0));
    out.totals.assign(b, 0);
    SampleSelectConfig cfgB = env.sel;
    cfgB.num_buckets = ms.b_eff;
    simt::Device& rdev = env.group.device(0);
    const int rstream = env.stream[0];
    std::optional<simt::PooledBuffer<std::int32_t>> landing;

    for (std::size_t j = 0; j < shards; ++j) {
        const auto& chunk = env.chunks[j];
        const std::size_t nj = chunk.size();
        if (nj == 0) continue;
        const int d = env.shard_dev[j];
        simt::Device& dev = env.group.device(d);
        const int sd = env.stream[static_cast<std::size_t>(d)];
        cfgB.stream = sd;
        PipelineContext ctx(dev, cfgB, sd);
        // The level owns the device totals; it stays alive until their
        // transfer to the root is issued below.
        std::optional<LevelOutcome<T>> lv;
        Status st = with_fault_retry(ctx, [&] {
            lv.reset();
            auto staged = DataHolder<T>::stage(ctx, chunk);
            lv.emplace(finish_level<T>(ctx, std::span<const T>(staged.span()), 0,
                                       simt::LaunchOrigin::host,
                                       ms.device_tree[static_cast<std::size_t>(d)], kCountOnly));
        });
        if (!st.ok()) return st;
        env.sample_peaks();
        for (std::size_t i = 0; i < b; ++i) {
            out.shard_totals[j][i] = lv->totals[i];
            out.totals[i] += lv->totals[i];
        }
        if (d != 0) {
            // The counts travel to the root like any other payload, so the
            // merge's link cost is modeled even though the values are
            // already host-visible.
            if (!landing) landing.emplace(rdev.pooled<std::int32_t>(b, rstream));
            const auto rec = env.group.template transfer<std::int32_t>(
                d, lv->totals_span(), 0, 0, landing->span(), 0, b, sd);
            rdev.wait_event(rstream, rec.ready_ns);
            dev.wait_event(sd, rec.src_done_ns);
        }
    }

    out.prefix.assign(b + 1, 0);
    for (std::size_t i = 0; i < b; ++i) out.prefix[i + 1] = out.prefix[i] + out.totals[i];
    if (out.prefix[b] != static_cast<std::int64_t>(env.total_n)) {
        return Status::failure(SelectError::internal, "sharded count lost elements");
    }
    if (out.prefix[b] <= std::numeric_limits<std::int32_t>::max()) {
        // The tiny device kernel locates the bucket, as in the single-device
        // pipeline (Sec. IV-E).
        std::vector<std::int32_t> t32(b);
        for (std::size_t i = 0; i < b; ++i) t32[i] = static_cast<std::int32_t>(out.totals[i]);
        auto dtot = rdev.pooled<std::int32_t>(b, rstream);
        std::copy(t32.begin(), t32.end(), dtot.span().begin());
        auto dpre = rdev.pooled<std::int32_t>(b + 1, rstream);
        out.bucket = select_bucket_kernel(rdev, std::span<const std::int32_t>(dtot.span()),
                                          dpre.span(), rank, simt::LaunchOrigin::host, rstream);
        env.sample_peaks();
    } else {
        // Beyond int32 the prefix scan stays on the host (the kernel's
        // counters are 32-bit).
        std::int32_t bkt = ms.b_eff - 1;
        for (std::size_t i = 0; i < b; ++i) {
            if (static_cast<std::int64_t>(rank) < out.prefix[i + 1]) {
                bkt = static_cast<std::int32_t>(i);
                break;
            }
        }
        out.bucket = bkt;
    }
    const auto& eq = ms.device_tree[0].equality;
    out.equality = eq[static_cast<std::size_t>(out.bucket)] != 0;
    out.bucket_size = static_cast<std::size_t>(out.totals[static_cast<std::size_t>(out.bucket)]);
    out.rank_offset = static_cast<std::size_t>(out.prefix[static_cast<std::size_t>(out.bucket)]);
    for (std::size_t i = 0; i < b; ++i) {
        if (eq[i]) continue;
        out.max_bucket = std::max(out.max_bucket, static_cast<std::size_t>(out.totals[i]));
    }
    return Status::success();
}

/// Phase B2: out-of-core filter.  Re-stages each shard, extracts its slice
/// of the located global bucket, and gathers the fragments into one merged
/// buffer on the root device (transfer-ordered; same-device fragments move
/// with a plain device copy so no phantom link bytes are charged).
template <typename T>
Status phase_filter_merge(ShardEnv<T>& env, const MergeState<T>& ms, const CountOutcome& co,
                          std::optional<simt::PooledBuffer<T>>& merged) {
    SampleSelectConfig cfgB = env.sel;
    cfgB.num_buckets = ms.b_eff;
    simt::Device& rdev = env.group.device(0);
    const int rstream = env.stream[0];
    merged.emplace(rdev.pooled<T>(co.bucket_size, rstream));
    std::size_t off = 0;
    for (std::size_t j = 0; j < env.chunks.size(); ++j) {
        const auto fj = static_cast<std::size_t>(
            co.shard_totals[j][static_cast<std::size_t>(co.bucket)]);
        if (fj == 0) continue;
        const int d = env.shard_dev[j];
        simt::Device& dev = env.group.device(d);
        const int sd = env.stream[static_cast<std::size_t>(d)];
        cfgB.stream = sd;
        PipelineContext ctx(dev, cfgB, sd);
        std::optional<simt::PooledBuffer<T>> frag_keep;
        Status st = with_fault_retry(ctx, [&] {
            frag_keep.reset();
            auto staged = DataHolder<T>::stage(ctx, env.chunks[j]);
            const std::span<const T> data(staged.span());
            const LevelOutcome<T> lv =
                finish_level<T>(ctx, data, 0, simt::LaunchOrigin::host,
                                ms.device_tree[static_cast<std::size_t>(d)], kCountForFilter);
            auto frag = dev.pooled<T>(fj, sd);
            filter_bucket<T>(ctx, data, lv, co.bucket, frag.span(), simt::LaunchOrigin::host);
            frag_keep.emplace(std::move(frag));
        });
        if (!st.ok()) return st;
        env.sample_peaks();
        if (d == 0) {
            launch_copy<T>(rdev, std::span<const T>(frag_keep->span()), 0, merged->span(), off,
                           fj, simt::LaunchOrigin::host, env.sel.block_dim, rstream);
        } else {
            const auto rec = env.group.template transfer<T>(d, std::span<const T>(frag_keep->span()), 0, 0,
                                                   merged->span(), off, fj, sd);
            rdev.wait_event(rstream, rec.ready_ns);
            dev.wait_event(sd, rec.src_done_ns);
        }
        frag_keep.reset();
        off += fj;
    }
    if (off != co.bucket_size) {
        return Status::failure(SelectError::internal,
                               "sharded filter gathered a mis-sized bucket");
    }
    return Status::success();
}

/// What the exact multi-shard machinery reports beyond the value.
template <typename T>
struct ExactOutcome {
    T value{};
    bool equality_exit = false;
    std::size_t merge_candidates = 0;
    std::size_t skew_bound = 0;
    std::size_t max_bucket = 0;
};

/// The exact selection over a prepared env: single-shard inputs take the
/// existing single-device front-end on the leased stream; multi-shard
/// inputs run candidates -> merge -> count -> filter -> root descent.
template <typename T>
Status run_exact(ShardEnv<T>& env, std::size_t rank, ExactOutcome<T>& out) {
    if (env.chunks.size() == 1) {
        SampleSelectConfig one = env.sel;
        one.stream = env.stream[0];
        auto r = try_sample_select<T>(env.group.device(0), std::span<const T>(env.chunks[0]),
                                      rank, one);
        if (!r.ok()) return r.status();
        out.value = r.value().value;
        out.equality_exit = r.value().equality_exit;
        env.sample_peaks();
        return Status::success();
    }
    std::vector<std::vector<T>> cand;
    if (Status st = phase_candidates(env, cand); !st.ok()) return st;
    MergeState<T> ms;
    if (Status st = merge_candidates(env, cand, ms); !st.ok()) return st;
    CountOutcome co;
    if (Status st = phase_count(env, ms, rank, co); !st.ok()) return st;
    out.merge_candidates = ms.candidates.size();
    out.skew_bound = ms.skew_bound;
    out.max_bucket = co.max_bucket;
    if (co.equality) {
        // The rank fell into a bucket that holds one repeated value.
        out.value = ms.splitters[static_cast<std::size_t>(co.bucket) - 1];
        out.equality_exit = true;
        return Status::success();
    }
    std::optional<simt::PooledBuffer<T>> merged;
    if (Status st = phase_filter_merge(env, ms, co, merged); !st.ok()) return st;
    SampleSelectConfig rsel = env.sel;
    rsel.stream = env.stream[0];
    auto r = try_sample_select_staged<T>(env.group.device(0),
                                         DataHolder<T>::from_pooled(std::move(*merged)),
                                         rank - co.rank_offset, rsel, env.stream[0]);
    if (!r.ok()) return r.status();
    env.sample_peaks();
    out.value = r.value().value;
    return Status::success();
}

}  // namespace

template <typename T>
Result<ShardedSelectResult<T>> try_sharded_select(simt::DeviceGroup& group,
                                                  std::span<const T> input, std::size_t rank,
                                                  const ShardSelectConfig& cfg) {
    if (Status v = validate_shard_config(cfg); !v.ok()) return v;
    const std::size_t n = input.size();
    if (n == 0) {
        return Status::failure(SelectError::empty_input, "sharded select of an empty input");
    }
    if (rank >= n) {
        return Status::failure(SelectError::rank_out_of_range, "rank exceeds the input size");
    }
    const std::size_t nan = count_nan_keys(input);
    if (nan > 0 && cfg.select.nan_policy == NanPolicy::reject) {
        return Status::failure(SelectError::nan_keys_rejected,
                               "NaN keys present with NanPolicy::reject");
    }
    ShardedSelectResult<T> res;
    const std::size_t clean_n = n - nan;
    if (rank >= clean_n) {
        // The rank falls inside the NaN tail: NaNs are the largest keys.
        res.value = quiet_nan<T>();
        res.acct.nan_count = nan;
        return res;
    }
    const ShardPlan plan = plan_shard_count(clean_n, sizeof(T), group.mem_capacity_bytes(),
                                            group.size(), cfg.max_shard_elems);
    ShardEnv<T> env(group, cfg);
    env.total_n = clean_n;
    env.nan = nan;
    prepare_env(env, input, plan);
    record_planned_decision(group.device(0), {BackendKind::sample, plan.reason, false}, clean_n,
                            rank, env.stream[0]);
    ExactOutcome<T> ex;
    if (Status st = run_exact(env, rank, ex); !st.ok()) return st;
    res.value = ex.value;
    res.equality_exit = ex.equality_exit;
    env.finish(res.acct);
    res.acct.merge_candidates = ex.merge_candidates;
    res.acct.skew_bound = ex.skew_bound;
    res.acct.max_bucket = ex.max_bucket;
    return res;
}

template <typename T>
Result<ShardedApproxSelectResult<T>> try_sharded_approx_select(simt::DeviceGroup& group,
                                                               std::span<const T> input,
                                                               std::size_t rank,
                                                               const ShardSelectConfig& cfg) {
    if (Status v = validate_shard_config(cfg); !v.ok()) return v;
    const std::size_t n = input.size();
    if (n == 0) {
        return Status::failure(SelectError::empty_input, "sharded select of an empty input");
    }
    if (rank >= n) {
        return Status::failure(SelectError::rank_out_of_range, "rank exceeds the input size");
    }
    const std::size_t nan = count_nan_keys(input);
    if (nan > 0 && cfg.select.nan_policy == NanPolicy::reject) {
        return Status::failure(SelectError::nan_keys_rejected,
                               "NaN keys present with NanPolicy::reject");
    }
    ShardedApproxSelectResult<T> res;
    const std::size_t clean_n = n - nan;
    if (rank >= clean_n) {
        res.value = quiet_nan<T>();
        res.acct.nan_count = nan;
        return res;
    }
    const ShardPlan plan = plan_shard_count(clean_n, sizeof(T), group.mem_capacity_bytes(),
                                            group.size(), cfg.max_shard_elems);
    ShardEnv<T> env(group, cfg);
    env.total_n = clean_n;
    env.nan = nan;
    prepare_env(env, input, plan);
    record_planned_decision(group.device(0), {BackendKind::sample, plan.reason, false}, clean_n,
                            rank, env.stream[0]);
    // The approximate path always runs the merge machinery (even for one
    // shard): the splitter edges ARE the answer, and the exact per-shard
    // counts make the residual rank error exact.
    std::vector<std::vector<T>> cand;
    if (Status st = phase_candidates(env, cand); !st.ok()) return st;
    MergeState<T> ms;
    if (Status st = merge_candidates(env, cand, ms); !st.ok()) return st;
    CountOutcome co;
    if (Status st = phase_count(env, ms, rank, co); !st.ok()) return st;
    const auto bkt = static_cast<std::size_t>(co.bucket);
    if (co.equality) {
        res.value = ms.splitters[bkt - 1];
        res.rank_error_bound = 0;
    } else if (co.bucket > 0) {
        // Elements below splitters[bucket-1] number at most prefix[bucket]
        // (exactly, for a non-duplicated splitter); +1 absorbs the
        // duplicated-splitter `<=` tie at the edge.
        res.value = ms.splitters[bkt - 1];
        res.rank_error_bound = (rank - static_cast<std::size_t>(co.prefix[bkt])) + 1;
    } else {
        res.value = ms.splitters[0];
        res.rank_error_bound = (static_cast<std::size_t>(co.prefix[1]) - rank) + 1;
    }
    env.finish(res.acct);
    res.acct.merge_candidates = ms.candidates.size();
    res.acct.skew_bound = ms.skew_bound;
    res.acct.max_bucket = co.max_bucket;
    return res;
}

template <typename T>
Result<ShardedTopKResult<T>> try_sharded_topk(simt::DeviceGroup& group, std::span<const T> input,
                                              std::size_t k, const ShardSelectConfig& cfg) {
    if (Status v = validate_shard_config(cfg); !v.ok()) return v;
    const std::size_t n = input.size();
    if (k == 0 || k > n) {
        return Status::failure(SelectError::rank_out_of_range, "top-k k must be in [1, n]");
    }
    const std::size_t nan = count_nan_keys(input);
    if (nan > 0 && cfg.select.nan_policy == NanPolicy::reject) {
        return Status::failure(SelectError::nan_keys_rejected,
                               "NaN keys present with NanPolicy::reject");
    }
    ShardedTopKResult<T> res;
    if (k <= nan) {
        // NaNs are the largest keys: the whole top-k set is NaN.
        res.elements.assign(k, quiet_nan<T>());
        res.threshold = quiet_nan<T>();
        res.acct.nan_count = nan;
        return res;
    }
    const std::size_t kp = k - nan;  // non-NaN winners needed
    const std::size_t clean_n = n - nan;
    const ShardPlan plan = plan_shard_count(clean_n, sizeof(T), group.mem_capacity_bytes(),
                                            group.size(), cfg.max_shard_elems);
    if (plan.shards > 1 && kp > plan.shard_elems) {
        return Status::failure(SelectError::invalid_argument,
                               "sharded top-k: k exceeds the per-shard staging budget (the "
                               "gathered result must fit the root device)");
    }
    ShardEnv<T> env(group, cfg);
    env.total_n = clean_n;
    env.nan = nan;
    prepare_env(env, input, plan);
    record_planned_decision(group.device(0), {BackendKind::sample, plan.reason, false}, clean_n,
                            kp, env.stream[0]);
    if (plan.shards == 1) {
        SampleSelectConfig one = env.sel;
        one.stream = env.stream[0];
        auto r = try_topk_largest<T>(group.device(0), std::span<const T>(env.chunks[0]), kp, one);
        if (!r.ok()) return r.status();
        res.elements = std::move(r.value().elements);
        res.threshold = r.value().threshold;
        env.sample_peaks();
        for (std::size_t i = 0; i < nan; ++i) res.elements.push_back(quiet_nan<T>());
        env.finish(res.acct);
        return res;
    }
    // Exact threshold: the kp-th largest non-NaN element.
    ExactOutcome<T> ex;
    if (Status st = run_exact(env, clean_n - kp, ex); !st.ok()) return st;
    const T t = ex.value;

    // Broadcast the threshold and build per-device tripartition trees
    // {t, t, t}: buckets 0-1 hold < t, bucket 2 is the equality bucket
    // == t, bucket 3 holds > t (exactly the fallback level's layout).
    std::vector<SearchTree<T>> tri(static_cast<std::size_t>(env.devices_used));
    tri[0] = SearchTree<T>::build({t, t, t});
    simt::Device& rdev = env.group.device(0);
    const int rstream = env.stream[0];
    if (env.devices_used > 1) {
        auto staged = rdev.pooled<T>(1, rstream);
        staged[0] = t;
        double last_src_done = 0.0;
        for (int d = 1; d < env.devices_used; ++d) {
            simt::Device& ddev = env.group.device(d);
            const int ds = env.stream[static_cast<std::size_t>(d)];
            auto landing = ddev.pooled<T>(1, ds);
            const auto rec = env.group.template transfer<T>(0, std::span<const T>(staged.span()), 0, d,
                                                   landing.span(), 0, 1, rstream);
            ddev.wait_event(ds, rec.ready_ns);
            last_src_done = rec.src_done_ns;
            const T got = landing[0];
            tri[static_cast<std::size_t>(d)] = SearchTree<T>::build({got, got, got});
        }
        rdev.wait_event(rstream, last_src_done);
    }

    // One tripartition count+filter pass per shard: elements strictly above
    // the threshold (bucket 3, at most kp - 1 of them globally) gather into
    // a root buffer; threshold copies pad the set to exactly kp.
    SampleSelectConfig cfg3 = env.sel;
    cfg3.num_buckets = 4;
    auto merged = rdev.pooled<T>(kp, rstream);
    std::size_t off = 0;
    for (std::size_t j = 0; j < env.chunks.size(); ++j) {
        const auto& chunk = env.chunks[j];
        if (chunk.empty()) continue;
        const int d = env.shard_dev[j];
        simt::Device& dev = env.group.device(d);
        const int sd = env.stream[static_cast<std::size_t>(d)];
        cfg3.stream = sd;
        PipelineContext ctx(dev, cfg3, sd);
        std::optional<simt::PooledBuffer<T>> frag_keep;
        std::size_t qj = 0;
        Status st = with_fault_retry(ctx, [&] {
            frag_keep.reset();
            qj = 0;
            auto staged = DataHolder<T>::stage(ctx, chunk);
            const std::span<const T> data(staged.span());
            const LevelOutcome<T> lv =
                finish_level<T>(ctx, data, 0, simt::LaunchOrigin::host,
                                tri[static_cast<std::size_t>(d)], kCountForFilter);
            qj = static_cast<std::size_t>(lv.totals[3]);
            if (qj == 0) return;
            auto frag = dev.pooled<T>(qj, sd);
            filter_bucket<T>(ctx, data, lv, 3, frag.span(), simt::LaunchOrigin::host);
            frag_keep.emplace(std::move(frag));
        });
        if (!st.ok()) return st;
        env.sample_peaks();
        if (qj == 0) continue;
        if (off + qj > kp) {
            return Status::failure(SelectError::internal,
                                   "sharded top-k gathered more than k winners");
        }
        if (d == 0) {
            launch_copy<T>(rdev, std::span<const T>(frag_keep->span()), 0, merged.span(), off, qj,
                           simt::LaunchOrigin::host, env.sel.block_dim, rstream);
        } else {
            const auto rec = env.group.template transfer<T>(d, std::span<const T>(frag_keep->span()), 0, 0,
                                                   merged.span(), off, qj, sd);
            rdev.wait_event(rstream, rec.ready_ns);
            dev.wait_event(sd, rec.src_done_ns);
        }
        frag_keep.reset();
        off += qj;
    }
    res.elements.assign(merged.span().begin(),
                        merged.span().begin() + static_cast<std::ptrdiff_t>(off));
    res.elements.resize(kp, t);  // pad with threshold copies (ties)
    for (std::size_t i = 0; i < nan; ++i) res.elements.push_back(quiet_nan<T>());
    res.threshold = t;
    env.finish(res.acct);
    res.acct.merge_candidates = ex.merge_candidates;
    res.acct.skew_bound = ex.skew_bound;
    res.acct.max_bucket = ex.max_bucket;
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
        const std::size_t nc = clean.size();
        int be = cfg_.splitter_buckets;
        while (be > 2 && static_cast<std::size_t>(be) > nc + 1) be /= 2;
        std::vector<std::size_t> ranks;
        ranks.reserve(static_cast<std::size_t>(be - 1));
        for (int t = 0; t + 1 < be; ++t) {
            std::size_t idx = (static_cast<std::size_t>(t + 1) * nc) /
                              static_cast<std::size_t>(be);
            if (idx > 0) --idx;
            if (idx >= nc) idx = nc - 1;
            ranks.push_back(idx);
        }
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
    const std::size_t b = totals_.size();
    std::vector<std::int64_t> prefix(b + 1, 0);
    for (std::size_t i = 0; i < b; ++i) prefix[i + 1] = prefix[i] + totals_[i];
    std::size_t bkt = b - 1;
    for (std::size_t i = 0; i < b; ++i) {
        if (static_cast<std::int64_t>(e.rank) < prefix[i + 1]) {
            bkt = i;
            break;
        }
    }
    if (tree_.equality[bkt]) {
        e.value = tree_.splitters[bkt - 1];
        e.rank_error_bound = 0;
    } else if (bkt > 0) {
        e.value = tree_.splitters[bkt - 1];
        e.rank_error_bound = (e.rank - static_cast<std::size_t>(prefix[bkt])) + 1;
    } else {
        e.value = tree_.splitters[0];
        e.rank_error_bound = (static_cast<std::size_t>(prefix[1]) - e.rank) + 1;
    }
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
