#include "core/batch_executor.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <string>
#include <utility>

#include "bitonic/bitonic.hpp"
#include "core/float_order.hpp"
#include "core/opening.hpp"
#include "core/planner.hpp"

namespace gpusel::core {

Result<int> try_resolve_stream_count(std::size_t batch, int requested) {
    if (batch == 0) return 1;
    long want = requested;
    if (want <= 0) {
        if (const char* env = std::getenv("GPUSEL_STREAMS")) {
            // Strict parse: the whole value must be one positive decimal
            // integer within the fan cap.  atoi's silent 0-on-garbage used
            // to demote "8 streams" typos to the default without a trace.
            while (*env == ' ' || *env == '\t') ++env;
            if (*env != '\0') {
                char* end = nullptr;
                errno = 0;
                const long parsed = std::strtol(env, &end, 10);
                while (end != nullptr && (*end == ' ' || *end == '\t')) ++end;
                const bool clean = end != nullptr && *end == '\0' && errno != ERANGE;
                if (!clean) {
                    return Status::failure(
                        SelectError::invalid_argument,
                        std::string("GPUSEL_STREAMS is not a number: \"") + env + "\"");
                }
                if (parsed <= 0) {
                    return Status::failure(
                        SelectError::invalid_argument,
                        "GPUSEL_STREAMS must be a positive stream count, got " +
                            std::to_string(parsed));
                }
                if (parsed > kMaxStreamFan) {
                    return Status::failure(
                        SelectError::invalid_argument,
                        "GPUSEL_STREAMS exceeds the stream-fan cap (" +
                            std::to_string(kMaxStreamFan) + "): " + std::to_string(parsed));
                }
                want = parsed;
            }
        }
    }
    if (want <= 0) {
        want = batch < 8 ? static_cast<long>(batch) : 8;
    }
    if (static_cast<std::size_t>(want) > batch) {
        want = static_cast<long>(batch);
    }
    return static_cast<int>(want);
}

StreamFan::StreamFan(simt::Device& dev, int count, int base_stream) : dev_(&dev) {
    if (count < 1) count = 1;
    streams_.reserve(static_cast<std::size_t>(count));
    streams_.push_back(base_stream);
    // A lease_stream() throw mid-loop (injected fault, stream-table limit)
    // would skip the destructor: release the partial lease set before
    // rethrowing so the streams are not leaked for the device's lifetime.
    try {
        for (int i = 1; i < count; ++i) {
            streams_.push_back(dev.lease_stream());
        }
    } catch (...) {
        for (std::size_t i = 1; i < streams_.size(); ++i) {
            dev.release_stream(streams_[i]);
        }
        throw;
    }
}

StreamFan::~StreamFan() {
    // An exception (or early error return) between fork() and join() lands
    // here with lane work possibly pending; a released lease may be handed
    // to unrelated work immediately, so join first.  Best-effort: the
    // destructor must not throw, and the leases must be released even when
    // the join itself fails.
    if (!joined_) {
        try {
            join();
        } catch (...) {
        }
    }
    for (std::size_t i = 1; i < streams_.size(); ++i) {
        dev_->release_stream(streams_[i]);
    }
}

double StreamFan::fork() {
    fork_ns_ = dev_->record_event(streams_[0]);
    for (std::size_t i = 1; i < streams_.size(); ++i) {
        dev_->wait_event(streams_[i], fork_ns_);
    }
    joined_ = streams_.size() <= 1;  // a one-lane fan has nothing to join
    return fork_ns_;
}

StreamFan::Overlap StreamFan::overlap() const {
    Overlap o;
    for (const int stream : streams_) {
        const double busy = dev_->stream_clock(stream) - fork_ns_;
        if (busy > 0.0) {
            o.serial_ns += busy;
            o.wall_ns = std::max(o.wall_ns, busy);
        }
    }
    return o;
}

void StreamFan::join() {
    for (std::size_t i = 1; i < streams_.size(); ++i) {
        dev_->wait_event(streams_[0], dev_->record_event(streams_[i]));
    }
    joined_ = true;
}

namespace {

/// One fused launch answering every coalesced problem of one lane: one
/// thread block per problem stages its numeric prefix into shared memory,
/// bitonic-sorts it (Sec. IV-D) and emits the requested rank.  Same kernel
/// name and per-block events as the classic batched_select fused launch,
/// just reading from per-problem staging buffers and enqueued on a lane
/// stream.
template <typename T>
void fused_lane_kernel(simt::Device& dev, const std::vector<std::span<const T>>& seqs,
                       const std::vector<std::size_t>& seq_rank, std::span<T> out,
                       int block_dim, int stream) {
    const int grid = static_cast<int>(seqs.size());
    dev.launch(
        "batched_select", {.grid_dim = grid, .block_dim = block_dim, .stream = stream},
        [&, out](simt::BlockCtx& blk) {
            const auto s = static_cast<std::size_t>(blk.block_idx());
            const std::span<const T> seq = seqs[s];
            const std::size_t len = seq.size();
            const std::size_t m = bitonic::next_pow2(len);
            auto sh = blk.shared_array<T>(m);

            blk.warp_tiles_local(len, [&](simt::WarpCtx& w, std::size_t base, std::size_t) {
                T regs[simt::kWarpSize];
                w.load(seq, base, regs);
                for (int l = 0; l < w.lanes(); ++l) {
                    blk.shared_st(sh, base + static_cast<std::size_t>(l), regs[l]);
                }
                w.touch_shared(static_cast<std::uint64_t>(w.lanes()) * sizeof(T));
            });
            bitonic::sort_in_shared(blk, sh, len);

            blk.st(out, s, blk.shared_ld(sh, seq_rank[s]));
            blk.charge_shared(sizeof(T));
            blk.charge_global_write(sizeof(T));
        });
}

}  // namespace

template <typename T>
Result<BatchExecResult<T>> BatchExecutor<T>::run(std::span<const BatchProblem<T>> problems) {
    simt::Device& dev = *dev_;
    const SampleSelectConfig& cfg = cfg_;
    if (Status s = check_config(PipelineContext(dev, cfg)); !s.ok()) return s;
    if (problems.empty()) {
        return Status::failure(SelectError::invalid_argument, "batch_executor: empty batch");
    }
    // Every range check runs before any problem is staged.
    for (const BatchProblem<T>& p : problems) {
        if (p.data.empty()) {
            return Status::failure(SelectError::empty_input, "batch_executor: empty problem");
        }
        if (p.rank >= p.data.size()) {
            return Status::failure(SelectError::rank_out_of_range,
                                   "batch_executor: rank out of range");
        }
    }

    const std::size_t m = problems.size();
    Result<int> fan_width = try_resolve_stream_count(m, opts_.streams);
    if (!fan_width.ok()) return fan_width.status();
    StreamFan fan(dev, fan_width.value(), cfg.stream);
    const auto lanes = static_cast<std::size_t>(fan.count());

    // One context per lane: pooled scratch and launches ordered on that
    // lane's stream (the per-stream arena of simt/pool.hpp).
    std::vector<PipelineContext> lane_ctx;
    lane_ctx.reserve(lanes);
    for (int l = 0; l < fan.count(); ++l) {
        lane_ctx.emplace_back(dev, cfg, fan.stream(l));
    }

    BatchExecResult<T> res;
    res.items.resize(m);
    res.streams_used = fan.count();

    // Open every problem on its lane: staged onto the lane's stream, NaN
    // tail partitioned off.
    std::vector<DataHolder<T>> staged(m);
    for (std::size_t i = 0; i < m; ++i) {
        const int lane = fan.lane_of(i);
        res.items[i].stream = fan.stream(lane);
        Result<Opened<T>> o = try_open<T>(lane_ctx[static_cast<std::size_t>(lane)],
                                          problems[i].data, Status::success());
        if (!o.ok()) return o.status();
        staged[i] = std::move(o.value().data);
        res.items[i].nan_count = o.value().nan_count;
        res.nan_count += o.value().nan_count;
    }

    const std::uint64_t l0 = dev.launch_count();
    (void)fan.fork();

    // Classify: NaN-tail ranks answer at staging, short numeric prefixes
    // coalesce per lane, the rest run the full recursion on their lane.
    std::vector<std::vector<std::size_t>> fused(lanes);
    std::vector<std::size_t> recursive;
    for (std::size_t i = 0; i < m; ++i) {
        if (problems[i].rank >= staged[i].size()) {
            res.items[i].value = quiet_nan<T>();
        } else if (staged[i].size() <= bitonic::kMaxSortSize) {
            fused[static_cast<std::size_t>(fan.lane_of(i))].push_back(i);
        } else {
            recursive.push_back(i);
        }
    }

    // Fused launches: one per lane that holds coalesced problems.  Launch
    // faults fire before any block runs, so retries re-launch the identical
    // grid with no partial writes to undo.
    for (std::size_t l = 0; l < lanes; ++l) {
        const std::vector<std::size_t>& group = fused[l];
        if (group.empty()) continue;
        std::vector<std::span<const T>> seqs;
        std::vector<std::size_t> seq_rank;
        seqs.reserve(group.size());
        seq_rank.reserve(group.size());
        for (const std::size_t i : group) {
            seqs.push_back(staged[i].span());
            seq_rank.push_back(problems[i].rank);
            // The fused lane launch sorts each problem outright, one per
            // block, so each records a bitonic descent.
            record_descent(dev, {Descent::bitonic, "batch-coalesced bitonic lane"},
                           staged[i].size(), problems[i].rank, fan.stream(static_cast<int>(l)));
        }
        simt::PooledBuffer<T> dout;
        const std::uint64_t before = dev.launch_count();
        Status s = with_fault_retry(lane_ctx[l], [&] {
            dout = lane_ctx[l].template scratch<T>(group.size());
            fused_lane_kernel<T>(dev, seqs, seq_rank, dout.span(), cfg.block_dim,
                                 fan.stream(static_cast<int>(l)));
        });
        if (!s.ok()) return s;
        const std::uint64_t after = dev.launch_count();
        for (std::size_t j = 0; j < group.size(); ++j) {
            BatchItemResult<T>& item = res.items[group[j]];
            item.value = dout[j];
            item.coalesced = true;
            item.first_launch = before;
            item.last_launch = after;
        }
        res.coalesced_problems += group.size();
        ++res.coalesced_launches;
    }

    // Full recursions, one per oversized problem, on that problem's lane.
    // The host issues them in problem order, so per-problem launch
    // subsequences are contiguous and byte-identical to serial runs.
    for (const std::size_t i : recursive) {
        res.items[i].first_launch = dev.launch_count();
        SampleSelectConfig pcfg = cfg;
        if (problems[i].deadline_ns > 0.0) pcfg.deadline_ns = problems[i].deadline_ns;
        auto sub = try_sample_select_staged<T>(dev, std::move(staged[i]), problems[i].rank, pcfg,
                                               res.items[i].stream);
        res.items[i].last_launch = dev.launch_count();
        if (!sub.ok()) {
            // A deadline overrun is a per-request outcome, not a batch
            // fault: record it on the item and keep the lane going.
            if (sub.error() == SelectError::deadline_exceeded) {
                res.items[i].status = sub.status();
                continue;
            }
            return sub.status();
        }
        res.items[i].value = sub.value().value;
    }
    res.recursive_problems = recursive.size();

    // Overlap accounting: lane busy time relative to the fork event; the
    // join makes the base stream (and elapsed_ns) reflect the wall time.
    const StreamFan::Overlap busy = fan.overlap();
    fan.join();
    res.wall_ns = busy.wall_ns;
    res.serial_ns = busy.serial_ns;
    res.launches = dev.launch_count() - l0;
    return res;
}

template class BatchExecutor<float>;
template class BatchExecutor<double>;
template class BatchExecutor<ArgPair>;

}  // namespace gpusel::core
