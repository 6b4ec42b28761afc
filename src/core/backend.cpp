#include "core/backend.hpp"

#include <utility>

#include "bitonic/bitonic.hpp"

namespace gpusel::core {

namespace {

/// The paper's sampled bucket recursion (the default backend).
template <typename T>
class SampleBackend final : public SelectionBackend<T> {
public:
    [[nodiscard]] BackendKind kind() const noexcept override { return BackendKind::sample; }

    [[nodiscard]] Result<SelectResult<T>> select(simt::Device& dev, DataHolder<T> data,
                                                 std::size_t rank, const SampleSelectConfig& cfg,
                                                 int stream) const override {
        return detail::sample_select_descend<T>(dev, std::move(data), rank, cfg, stream);
    }

    [[nodiscard]] Result<TopKResult<T>> topk_largest(simt::Device& dev, DataHolder<T> data,
                                                     std::size_t k,
                                                     const SampleSelectConfig& cfg,
                                                     int stream) const override {
        return detail::sample_topk_descend<T>(dev, std::move(data), k, cfg, stream);
    }
};

/// Single-block bitonic sort run as a whole-problem backend.  The launch
/// sequence is exactly the recursion base case (sort, then pick / copy),
/// so routing small problems here keeps event streams identical to the
/// pre-planner code.
template <typename T>
class BitonicBackend final : public SelectionBackend<T> {
public:
    [[nodiscard]] BackendKind kind() const noexcept override { return BackendKind::bitonic; }

    [[nodiscard]] Result<SelectResult<T>> select(simt::Device& dev, DataHolder<T> data,
                                                 std::size_t rank, const SampleSelectConfig& cfg,
                                                 int stream) const override {
        const std::size_t n = data.size();
        if (n > bitonic::kMaxSortSize) {
            return Status::failure(SelectError::invalid_argument,
                                   "bitonic backend: input exceeds the sort capacity");
        }
        PipelineContext ctx(dev, cfg, stream);
        Status s = with_fault_retry(
            ctx, [&] { sort_base_case<T>(ctx, data.span(), simt::LaunchOrigin::host); });
        if (!s.ok()) return s;
        SelectResult<T> res{};
        res.value = data.span()[rank];
        return res;
    }

    [[nodiscard]] Result<TopKResult<T>> topk_largest(simt::Device& dev, DataHolder<T> data,
                                                     std::size_t k,
                                                     const SampleSelectConfig& cfg,
                                                     int stream) const override {
        const std::size_t n = data.size();
        if (n > bitonic::kMaxSortSize || k > n) {
            return Status::failure(SelectError::invalid_argument,
                                   "bitonic backend: input exceeds the sort capacity");
        }
        PipelineContext ctx(dev, cfg, stream);
        const std::size_t threshold_rank = n - k;
        TopKResult<T> res;
        simt::PooledBuffer<T> acc;
        Status s = with_fault_retry(ctx, [&] { acc = ctx.template scratch<T>(k); });
        if (!s.ok()) return s;
        s = with_fault_retry(
            ctx, [&] { sort_base_case<T>(ctx, data.span(), simt::LaunchOrigin::host); });
        if (!s.ok()) return s;
        s = with_fault_retry(ctx, [&] {
            launch_copy<T>(dev, data.span(), threshold_rank, acc.span(), 0, k,
                           simt::LaunchOrigin::host, cfg.block_dim, ctx.stream());
        });
        if (!s.ok()) return s;
        res.threshold = data.span()[threshold_rank];
        res.elements.assign(acc.data(), acc.data() + k);
        return res;
    }
};

}  // namespace

template <typename T>
const SelectionBackend<T>& selection_backend(BackendKind kind) {
    static const SampleBackend<T> sample;
    static const BitonicBackend<T> bitonic_;
    if (kind == BackendKind::bitonic) return bitonic_;
    return sample;
}

template const SelectionBackend<float>& selection_backend<float>(BackendKind);
template const SelectionBackend<double>& selection_backend<double>(BackendKind);
template const SelectionBackend<ArgPair>& selection_backend<ArgPair>(BackendKind);

}  // namespace gpusel::core
