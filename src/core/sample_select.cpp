#include "core/sample_select.hpp"

#include <utility>

#include "core/backend.hpp"
#include "core/float_order.hpp"
#include "core/opening.hpp"
#include "core/pipeline.hpp"
#include "core/planner.hpp"

namespace gpusel::core {

namespace detail {

template <typename T>
Result<SelectResult<T>> sample_select_descend(simt::Device& dev, DataHolder<T> data,
                                              std::size_t rank, const SampleSelectConfig& cfg,
                                              int stream) {
    SelectionPipeline<T> pipe(dev, cfg, stream);
    pipe.reset(std::move(data));
    SelectResult<T> res;
    // Exact selection follows the rank's bucket down, and stops early in an
    // equality bucket: every element there equals the splitter (Sec. IV-C).
    auto d = pipe.descend(rank, [&](const LevelOutcome<T>& lv,
                                    simt::LaunchOrigin origin) -> Result<bool> {
        if (lv.equality) {
            res.value = lv.equality_value(lv.bucket);
            res.equality_exit = true;
            return false;
        }
        if (Status s = pipe.try_descend(lv, origin); !s.ok()) return s;
        return true;
    });
    if (!d.ok()) return d.status();
    if (d.value().base_case) res.value = pipe.value_at(rank);
    res.levels = d.value().levels;
    res.resamples = d.value().tally.resamples;
    res.fallback_levels = d.value().tally.fallback_levels;
    return res;
}

template Result<SelectResult<float>> sample_select_descend<float>(
    simt::Device&, DataHolder<float>, std::size_t, const SampleSelectConfig&, int);
template Result<SelectResult<double>> sample_select_descend<double>(
    simt::Device&, DataHolder<double>, std::size_t, const SampleSelectConfig&, int);
template Result<SelectResult<ArgPair>> sample_select_descend<ArgPair>(
    simt::Device&, DataHolder<ArgPair>, std::size_t, const SampleSelectConfig&, int);

}  // namespace detail

template <typename T>
Result<SelectResult<T>> try_sample_select_staged(simt::Device& dev, DataHolder<T> data,
                                                 std::size_t rank,
                                                 const SampleSelectConfig& cfg, int stream) {
    // Plan which backend runs the NaN-free problem (host-side only; no
    // launches, so the chosen backend's event stream starts at t0).
    const PlanDecision plan =
        plan_selection(dev, {.n = data.size(), .k = rank, .base_case_size = cfg.base_case_size},
                       stream < 0 ? cfg.stream : stream);

    const Stamp<SelectResult<T>> stamp(dev);
    Result<SelectResult<T>> res =
        selection_backend<T>(plan.backend).select(dev, std::move(data), rank, cfg, stream);
    if (res.ok()) stamp.write(res.value());
    return res;
}

template <typename T>
Result<SelectResult<T>> try_sample_select(simt::Device& dev, std::span<const T> input,
                                          std::size_t rank, const SampleSelectConfig& cfg) {
    const std::size_t n = input.size();
    Result<Opened<T>> o = try_open<T>(
        PipelineContext(dev, cfg), input,
        n == 0 || rank >= n
            ? Status::failure(SelectError::rank_out_of_range, "rank out of range")
            : Status::success());
    if (!o.ok()) return o.status();
    Opened<T>& op = o.value();
    if (rank >= op.data.size()) {
        // The rank falls inside the NaN tail of the total order; answered
        // at staging without any device work.
        SelectResult<T> r{};
        r.value = quiet_nan<T>();
        r.nan_count = op.nan_count;
        return r;
    }
    Result<SelectResult<T>> res = try_sample_select_staged<T>(dev, std::move(op.data), rank, cfg);
    if (res.ok()) res.value().nan_count = op.nan_count;
    return res;
}

template Result<SelectResult<float>> try_sample_select<float>(
    simt::Device&, std::span<const float>, std::size_t, const SampleSelectConfig&);
template Result<SelectResult<double>> try_sample_select<double>(
    simt::Device&, std::span<const double>, std::size_t, const SampleSelectConfig&);
template Result<SelectResult<ArgPair>> try_sample_select<ArgPair>(
    simt::Device&, std::span<const ArgPair>, std::size_t, const SampleSelectConfig&);
template Result<SelectResult<float>> try_sample_select_staged<float>(
    simt::Device&, DataHolder<float>, std::size_t, const SampleSelectConfig&, int);
template Result<SelectResult<double>> try_sample_select_staged<double>(
    simt::Device&, DataHolder<double>, std::size_t, const SampleSelectConfig&, int);
template Result<SelectResult<ArgPair>> try_sample_select_staged<ArgPair>(
    simt::Device&, DataHolder<ArgPair>, std::size_t, const SampleSelectConfig&, int);

}  // namespace gpusel::core
