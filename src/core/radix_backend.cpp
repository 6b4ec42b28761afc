#include "core/radix_backend.hpp"

#include <algorithm>
#include <utility>

#include "core/count_kernel.hpp"
#include "core/radix_kernel.hpp"
#include "simt/timing.hpp"

namespace gpusel::core {

namespace {

/// Cursor slots appended to the totals scratch block: slot 0 is the filter
/// target cursor, slot 1 the top-k accumulator cursor.  Co-allocating them
/// with the totals lets the pass's single memset zero everything at once.
constexpr std::size_t kCursorSlots = 2;

RadixLaunchParams radix_params(const PipelineContext& ctx) {
    // The backend always histograms through *global* atomics with warp
    // aggregation, regardless of the configured space:
    //  * the planner routes duplicate-heavy inputs here, where aggregation
    //    collapses each warp's histogram update to about one atomic per
    //    fused level (plain same-bin atomics would serialize warp-wide);
    //  * shared mode would add one reduce launch per fused level (up to
    //    four per pass) to fold the [block][bin] partials.
    // Global mode needs neither partials nor reduces: the count pass
    // produces device-wide totals directly and radix_walk consumes them.
    return {.block_dim = ctx.cfg().block_dim,
            .unroll = ctx.cfg().unroll,
            .atomic_space = simt::AtomicSpace::global,
            .warp_aggregation = true,
            .stream = ctx.stream()};
}

/// Origin sequencing for one selection: the first launch of the descent is
/// issued from the host; every later launch is a dynamic-parallelism
/// continuation (the same modelling the sample descent applies per pass,
/// here applied per launch).  Call next() once per launch *site*, outside
/// the fault-retry closure, so a retried launch keeps its origin.
class OriginChain {
public:
    simt::LaunchOrigin next() noexcept {
        const auto o = first_ ? simt::LaunchOrigin::host : simt::LaunchOrigin::device;
        first_ = false;
        return o;
    }

private:
    bool first_ = true;
};

/// One fused histogram pass over the active buffer: scratch checkout, the
/// combined totals+cursors zero-fill and the count launch, each under the
/// bounded fault-retry policy.  Returns the grid used, or the failure.
template <typename T>
Status run_count_pass(const PipelineContext& ctx, std::span<const T> data, int shift, int fuse,
                      simt::PooledBuffer<std::int32_t>& totals,
                      simt::PooledBuffer<std::int32_t>& prefix, const RadixLaunchParams& p,
                      OriginChain& origin, int& grid_out) {
    simt::Device& dev = ctx.dev();
    const std::size_t n = data.size();
    const int grid = simt::suggest_grid(dev.arch(), n, p.block_dim, p.unroll);
    const auto ufuse = static_cast<std::size_t>(fuse);
    const auto mo = origin.next();
    Status s = with_fault_retry(ctx, [&] {
        totals = ctx.scratch<std::int32_t>(ufuse * kRadixBins + kCursorSlots);
        prefix = ctx.scratch<std::int32_t>(kRadixBins + 1);
        launch_memset32(dev, totals.span(), mo, ctx.stream());
    });
    if (!s.ok()) return s;
    const auto co = origin.next();
    s = with_fault_retry(ctx, [&] {
        radix_count_fused<T>(dev, data, shift, fuse, totals.span().first(ufuse * kRadixBins),
                             std::span<std::int32_t>{}, p, co);
    });
    grid_out = grid;
    return s;
}

/// The fused-level walk launch under retry (pure: it re-derives the prefix
/// from the totals on every run, so a retried launch is idempotent).
Status run_walk(const PipelineContext& ctx, const simt::PooledBuffer<std::int32_t>& totals,
                simt::PooledBuffer<std::int32_t>& prefix, int fuse, std::size_t n,
                std::size_t rank, OriginChain& origin, RadixWalkResult& walk) {
    simt::Device& dev = ctx.dev();
    const auto ufuse = static_cast<std::size_t>(fuse);
    const auto wo = origin.next();
    return with_fault_retry(ctx, [&] {
        walk = radix_walk(dev, totals.span().first(ufuse * kRadixBins), prefix.span(), fuse, n,
                          rank, wo, ctx.stream());
    });
}

/// Between-pass deadline check, the radix analogue of the sample descent's
/// inter-level check (docs/service.md).  `level` 0 always runs: up-front
/// rejection is admission control's job, this is defence in depth.
Status check_deadline(const PipelineContext& ctx, std::size_t level) {
    const double deadline = ctx.cfg().deadline_ns;
    if (deadline > 0.0 && level > 0 &&
        ctx.dev().stream_clock(ctx.stream()) > deadline) {
        return Status::failure(SelectError::deadline_exceeded,
                               "radix_select: deadline exceeded between passes");
    }
    return Status::success();
}

}  // namespace

template <typename T>
Result<SelectResult<T>> try_radix_select_staged(simt::Device& dev, DataHolder<T> data,
                                                std::size_t rank, const SampleSelectConfig& cfg,
                                                int stream) {
    PipelineContext ctx(dev, cfg, stream);
    const RadixLaunchParams p = radix_params(ctx);
    PingPong<T> pp;
    pp.reset(std::move(data));

    SelectResult<T> res;
    int shift = radix_key_bits<T>() - kRadixDigitBits;
    OriginChain origin;

    for (;;) {
        const std::size_t n = pp.size();
        if (Status ds = check_deadline(ctx, res.levels); !ds.ok()) return ds;
        if (shift < 0) {
            // Every key bit has been consumed without isolating a smaller
            // bucket: all remaining elements are equal (the radix analogue
            // of the sample recursion's equality bucket).
            res.value = pp.data()[0];
            res.equality_exit = true;
            break;
        }
        if (n <= cfg.base_case_size) {
            const auto o = origin.next();
            Status s =
                with_fault_retry(ctx, [&] { sort_base_case<T>(ctx, pp.data(), o); });
            if (!s.ok()) return s;
            res.value = pp.data()[rank];
            break;
        }

        const int fuse = std::min(shift / kRadixDigitBits + 1, kRadixMaxFusedLevels);
        simt::PooledBuffer<std::int32_t> totals;
        simt::PooledBuffer<std::int32_t> prefix;
        int grid = 0;
        Status s =
            run_count_pass<T>(ctx, pp.data(), shift, fuse, totals, prefix, p, origin, grid);
        if (!s.ok()) return s;
        ++res.levels;

        // Walk the fused digit levels off this one pass in a single launch.
        // While the located bin still holds the whole buffer, the deeper
        // histograms (computed over exactly these elements) stay valid and
        // the filter is skipped; the first shrinking bin stops the walk and
        // invalidates the rest of the pass.
        RadixWalkResult walk;
        s = run_walk(ctx, totals, prefix, fuse, n, rank, origin, walk);
        if (!s.ok()) return s;
        rank = walk.rank;

        if (walk.bucket_size < n) {
            const int lv = walk.consumed - 1;
            const int lshift = shift - lv * kRadixDigitBits;
            const auto ufuse = static_cast<std::size_t>(fuse);
            const auto fo = origin.next();
            s = with_fault_retry(ctx, [&] {
                auto out = pp.back(ctx, walk.bucket_size);
                radix_filter<T>(dev, pp.data(), lshift, walk.digits[lv], out,
                                std::span<const std::int32_t>{},
                                totals.span().subspan(ufuse * kRadixBins, 1), p, fo, grid);
            });
            if (!s.ok()) return s;
            pp.flip(walk.bucket_size);
        }
        shift -= walk.consumed * kRadixDigitBits;
    }
    return res;
}

template <typename T>
Result<TopKResult<T>> try_radix_topk_staged(simt::Device& dev, DataHolder<T> data, std::size_t k,
                                            const SampleSelectConfig& cfg, int stream) {
    PipelineContext ctx(dev, cfg, stream);
    const RadixLaunchParams p = radix_params(ctx);
    PingPong<T> pp;
    pp.reset(std::move(data));

    TopKResult<T> res;
    simt::PooledBuffer<T> acc;
    Status s = with_fault_retry(ctx, [&] { acc = ctx.template scratch<T>(k); });
    if (!s.ok()) return s;

    std::size_t remaining = k;  // top elements still to secure from the buffer
    std::size_t fill = 0;       // next free slot in acc
    int shift = radix_key_bits<T>() - kRadixDigitBits;
    OriginChain origin;

    while (remaining > 0) {
        const std::size_t n = pp.size();
        const std::size_t threshold_rank = n - remaining;
        if (Status ds = check_deadline(ctx, res.levels); !ds.ok()) return ds;

        if (shift < 0) {
            // All remaining elements equal: take as many as still needed.
            res.threshold = pp.data()[0];
            const auto o = origin.next();
            s = with_fault_retry(ctx, [&] {
                launch_copy<T>(dev, pp.data(), 0, acc.span(), fill, remaining, o,
                               cfg.block_dim, ctx.stream());
            });
            if (!s.ok()) return s;
            fill += remaining;
            break;
        }
        if (n <= cfg.base_case_size) {
            const auto so = origin.next();
            s = with_fault_retry(ctx, [&] { sort_base_case<T>(ctx, pp.data(), so); });
            if (!s.ok()) return s;
            const auto co = origin.next();
            s = with_fault_retry(ctx, [&] {
                launch_copy<T>(dev, pp.data(), threshold_rank, acc.span(), fill, remaining,
                               co, cfg.block_dim, ctx.stream());
            });
            if (!s.ok()) return s;
            res.threshold = pp.data()[threshold_rank];
            fill += remaining;
            break;
        }

        const int fuse = std::min(shift / kRadixDigitBits + 1, kRadixMaxFusedLevels);
        simt::PooledBuffer<std::int32_t> totals;
        simt::PooledBuffer<std::int32_t> prefix;
        int grid = 0;
        s = run_count_pass<T>(ctx, pp.data(), shift, fuse, totals, prefix, p, origin, grid);
        if (!s.ok()) return s;
        ++res.levels;

        RadixWalkResult walk;
        s = run_walk(ctx, totals, prefix, fuse, n, threshold_rank, origin, walk);
        if (!s.ok()) return s;

        if (walk.bucket_size < n) {
            // Elements in greater-digit bins are guaranteed top-k members
            // (Sec. IV-I fusion): append them to acc while extracting the
            // threshold bin.
            const int lv = walk.consumed - 1;
            const int lshift = shift - lv * kRadixDigitBits;
            const auto ufuse = static_cast<std::size_t>(fuse);
            const auto fo = origin.next();
            s = with_fault_retry(ctx, [&] {
                auto out = pp.back(ctx, walk.bucket_size);
                radix_filter_topk<T>(dev, pp.data(), lshift, walk.digits[lv], out, acc.span(),
                                     static_cast<std::int32_t>(fill),
                                     std::span<const std::int32_t>{},
                                     totals.span().subspan(ufuse * kRadixBins, kCursorSlots),
                                     p, fo, grid);
            });
            if (!s.ok()) return s;
            pp.flip(walk.bucket_size);
            fill += walk.cnt_upper;
            remaining -= walk.cnt_upper;
        }
        shift -= walk.consumed * kRadixDigitBits;
    }

    if (fill != k) {
        return Status::failure(SelectError::internal,
                               "radix_topk: accumulator fill mismatch");
    }
    res.elements.assign(acc.data(), acc.data() + k);
    return res;
}

template Result<SelectResult<float>> try_radix_select_staged<float>(simt::Device&,
                                                                    DataHolder<float>,
                                                                    std::size_t,
                                                                    const SampleSelectConfig&,
                                                                    int);
template Result<SelectResult<double>> try_radix_select_staged<double>(simt::Device&,
                                                                      DataHolder<double>,
                                                                      std::size_t,
                                                                      const SampleSelectConfig&,
                                                                      int);
template Result<SelectResult<ArgPair>> try_radix_select_staged<ArgPair>(
    simt::Device&, DataHolder<ArgPair>, std::size_t, const SampleSelectConfig&, int);
template Result<TopKResult<float>> try_radix_topk_staged<float>(simt::Device&, DataHolder<float>,
                                                                std::size_t,
                                                                const SampleSelectConfig&, int);
template Result<TopKResult<double>> try_radix_topk_staged<double>(simt::Device&,
                                                                  DataHolder<double>,
                                                                  std::size_t,
                                                                  const SampleSelectConfig&, int);
template Result<TopKResult<ArgPair>> try_radix_topk_staged<ArgPair>(simt::Device&,
                                                                    DataHolder<ArgPair>,
                                                                    std::size_t,
                                                                    const SampleSelectConfig&,
                                                                    int);

}  // namespace gpusel::core
