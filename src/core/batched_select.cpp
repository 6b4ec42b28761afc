#include "core/batched_select.hpp"


namespace gpusel::core {

template <typename T>
Result<BatchedSelectResult<T>> try_batched_select(simt::Device& dev, std::span<const T> flat,
                                                  std::span<const std::size_t> offsets,
                                                  std::span<const std::size_t> ranks,
                                                  const SampleSelectConfig& cfg,
                                                  const BatchOptions& opts) {
    if (Status vs = cfg.validate(/*exact=*/true); !vs.ok()) return vs;
    if (offsets.size() < 2 || ranks.size() != offsets.size() - 1) {
        return Status::failure(SelectError::invalid_argument,
                               "batched_select: need offsets of size m+1 and m ranks");
    }
    if (offsets.front() != 0 || offsets.back() != flat.size()) {
        return Status::failure(SelectError::invalid_argument,
                               "batched_select: offsets must span the flat array");
    }
    const std::size_t m = ranks.size();
    std::vector<BatchProblem<T>> problems(m);
    for (std::size_t i = 0; i < m; ++i) {
        if (offsets[i + 1] < offsets[i]) {
            return Status::failure(SelectError::invalid_argument,
                                   "batched_select: offsets must be non-decreasing");
        }
        const std::size_t len = offsets[i + 1] - offsets[i];
        if (len == 0) {
            return Status::failure(SelectError::empty_input, "batched_select: empty sequence");
        }
        if (ranks[i] >= len) {
            return Status::failure(SelectError::rank_out_of_range,
                                   "batched_select: rank out of range");
        }
        problems[i] = {flat.subspan(offsets[i], len), ranks[i]};
    }

    BatchExecutor<T> exec(dev, cfg, opts);
    auto run = exec.run(problems);
    if (!run.ok()) return run.status();
    const BatchExecResult<T> ex = run.take();

    BatchedSelectResult<T> res;
    res.values.resize(m);
    for (std::size_t i = 0; i < m; ++i) res.values[i] = ex.items[i].value;
    res.batched_sequences = ex.coalesced_problems;
    res.recursive_sequences = ex.recursive_problems;
    res.nan_count = ex.nan_count;
    res.launches = ex.launches;
    res.streams_used = ex.streams_used;
    res.wall_ns = ex.wall_ns;
    res.serial_ns = ex.serial_ns;
    res.sim_ns = ex.wall_ns;
    return res;
}

template Result<BatchedSelectResult<float>> try_batched_select<float>(
    simt::Device&, std::span<const float>, std::span<const std::size_t>,
    std::span<const std::size_t>, const SampleSelectConfig&, const BatchOptions&);
template Result<BatchedSelectResult<double>> try_batched_select<double>(
    simt::Device&, std::span<const double>, std::span<const std::size_t>,
    std::span<const std::size_t>, const SampleSelectConfig&, const BatchOptions&);

}  // namespace gpusel::core
