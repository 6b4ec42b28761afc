// Tests for the device scan substrate (simt/scan.hpp).

#include "simt/scan.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "data/rng.hpp"

namespace {

using namespace gpusel;
using namespace gpusel::simt;

std::vector<std::int32_t> reference_scan(const std::vector<std::int32_t>& in) {
    std::vector<std::int32_t> out(in.size());
    std::exclusive_scan(in.begin(), in.end(), out.begin(), 0);
    return out;
}

class ScanSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScanSizes, MatchesStdExclusiveScan) {
    const std::size_t n = GetParam();
    Device dev(arch_v100());
    data::Xoshiro256 rng(n + 1);
    auto in = dev.alloc<std::int32_t>(n);
    std::vector<std::int32_t> host(n);
    for (auto& x : host) x = static_cast<std::int32_t>(rng.bounded(1000)) - 500;
    std::copy(host.begin(), host.end(), in.data());
    auto out = dev.alloc<std::int32_t>(n);
    exclusive_scan_i32(dev, in.span(), out.span());
    const auto expect = reference_scan(host);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], expect[i]) << "index " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanSizes,
                         ::testing::Values(1u, 2u, 31u, 32u, 33u, 1000u, 40960u, 100001u,
                                           1u << 20));

TEST(Scan, EmptyIsNoop) {
    Device dev(arch_v100());
    exclusive_scan_i32(dev, {}, {});
    EXPECT_EQ(dev.launch_count(), 0u);
}

TEST(Scan, InPlaceAliasing) {
    Device dev(arch_v100());
    const std::size_t n = 10000;
    auto buf = dev.alloc<std::int32_t>(n);
    std::vector<std::int32_t> host(n, 1);
    std::copy(host.begin(), host.end(), buf.data());
    exclusive_scan_i32(dev, buf.span(), buf.span());
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(buf[i], static_cast<std::int32_t>(i));
    }
}

TEST(Scan, TotalReturnsSum) {
    Device dev(arch_v100());
    const std::size_t n = 1000;
    auto in = dev.alloc<std::int32_t>(n);
    for (std::size_t i = 0; i < n; ++i) in[i] = 2;
    auto out = dev.alloc<std::int32_t>(n);
    EXPECT_EQ(scan_total_i32(dev, in.span(), out.span()), 2000);
}

TEST(Scan, SizeMismatchThrows) {
    Device dev(arch_v100());
    auto in = dev.alloc<std::int32_t>(4);
    auto out = dev.alloc<std::int32_t>(3);
    EXPECT_THROW(exclusive_scan_i32(dev, in.span(), out.span()), std::invalid_argument);
}

TEST(Scan, ThreeLaunchesAndLinearTraffic) {
    Device dev(arch_v100());
    const std::size_t n = 1 << 18;
    auto in = dev.alloc<std::int32_t>(n);
    auto out = dev.alloc<std::int32_t>(n);
    exclusive_scan_i32(dev, in.span(), out.span());
    EXPECT_EQ(dev.launch_count(), 3u);
    const auto c = dev.counter_totals();
    // read in twice (phase 1 + phase 3 reads of out), write out twice
    EXPECT_GE(c.total_global_bytes(), 4 * n * sizeof(std::int32_t));
    EXPECT_LE(c.total_global_bytes(), 5 * n * sizeof(std::int32_t));
}

}  // namespace
