#include "core/sample_select.hpp"

#include <optional>
#include <utility>

#include "core/float_order.hpp"
#include "core/opening.hpp"
#include "core/pipeline.hpp"
#include "core/planner.hpp"

namespace gpusel::core {

template <typename T>
Result<SelectResult<T>> try_sample_select_staged(simt::Device& dev, DataHolder<T> data,
                                                 std::size_t rank, const SampleSelectConfig& cfg,
                                                 int stream, std::optional<SearchTree<T>> first) {
    record_descent(dev, linear_descent(data.size(), cfg), data.size(), rank,
                   stream < 0 ? cfg.stream : stream);

    const Stamp<SelectResult<T>> stamp(dev);
    SelectionPipeline<T> pipe(dev, cfg, stream);
    pipe.reset(std::move(data), std::move(first));
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
    stamp.write(res);
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
    simt::Device&, DataHolder<float>, std::size_t, const SampleSelectConfig&, int,
    std::optional<SearchTree<float>>);
template Result<SelectResult<double>> try_sample_select_staged<double>(
    simt::Device&, DataHolder<double>, std::size_t, const SampleSelectConfig&, int,
    std::optional<SearchTree<double>>);
template Result<SelectResult<ArgPair>> try_sample_select_staged<ArgPair>(
    simt::Device&, DataHolder<ArgPair>, std::size_t, const SampleSelectConfig&, int,
    std::optional<SearchTree<ArgPair>>);

}  // namespace gpusel::core
