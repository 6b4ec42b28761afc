// Stream overlap: two independent selections sharing the device.
//
// The paper stresses preserving the GPU's asynchronous execution model;
// the simulator exposes CUDA-style streams for exactly that.  A selection
// pinned to its own stream overlaps with work on other streams, so two
// median queries on different datasets finish in roughly the time of one.

#include <iostream>

#include "core/sample_select.hpp"
#include "data/distributions.hpp"

int main() {
    using namespace gpusel;
    simt::Device dev(simt::arch_v100());
    const int s1 = dev.create_stream();
    const int s2 = dev.create_stream();

    const std::size_t n = 1 << 22;
    const auto a = data::generate<float>(
        {.n = n, .dist = data::Distribution::uniform_real, .seed = 1});
    const auto b = data::generate<float>(
        {.n = n, .dist = data::Distribution::lognormal, .seed = 2});

    core::SampleSelectConfig cfg1;
    cfg1.stream = s1;
    core::SampleSelectConfig cfg2;
    cfg2.stream = s2;

    const auto r1 = core::try_sample_select<float>(dev, a, n / 2, cfg1).value();
    const auto r2 = core::try_sample_select<float>(dev, b, n / 2, cfg2).value();

    const double busy1 = dev.stream_clock(s1);
    const double busy2 = dev.stream_clock(s2);
    std::cout << "median(A) = " << r1.value << ",  median(B) = " << r2.value << "\n"
              << "stream 1 busy : " << busy1 / 1e6 << " ms\n"
              << "stream 2 busy : " << busy2 / 1e6 << " ms\n"
              << "wall clock    : " << dev.elapsed_ns() / 1e6 << " ms  (vs "
              << (busy1 + busy2) / 1e6 << " ms serialized -> "
              << (busy1 + busy2) / dev.elapsed_ns() << "x overlap speedup)\n";
    return 0;
}
