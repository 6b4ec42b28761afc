// Tests for profile aggregation and trace export (simt/trace.hpp).

#include "simt/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/sample_select.hpp"
#include "data/distributions.hpp"
#include "simt/device.hpp"

namespace {

using namespace gpusel;

std::vector<simt::KernelProfile> sample_profiles() {
    simt::Device dev(simt::arch_v100());
    const auto data = data::generate<float>(
        {.n = 1 << 14, .dist = data::Distribution::uniform_real, .seed = 3});
    (void)core::try_sample_select<float>(dev, data, 1 << 13, {}).value();
    return dev.profiles();
}

TEST(AggregateByName, GroupsAndSums) {
    const auto profiles = sample_profiles();
    const auto by = simt::aggregate_by_name(profiles);
    EXPECT_TRUE(by.contains("sample"));
    EXPECT_TRUE(by.contains("count"));
    EXPECT_TRUE(by.contains("filter"));
    std::uint64_t launches = 0;
    double total = 0;
    for (const auto& [name, a] : by) {
        launches += a.launches;
        total += a.total_ns;
    }
    EXPECT_EQ(launches, profiles.size());
    double direct = 0;
    for (const auto& p : profiles) direct += p.sim_ns;
    EXPECT_DOUBLE_EQ(total, direct);
}

TEST(ChromeTrace, ValidJsonShape) {
    const auto profiles = sample_profiles();
    std::ostringstream os;
    simt::write_chrome_trace(os, profiles);
    const auto s = os.str();
    EXPECT_TRUE(s.starts_with("{\"traceEvents\":["));
    EXPECT_TRUE(s.ends_with("]}"));
    // one event per profile
    std::size_t events = 0;
    for (std::size_t pos = 0; (pos = s.find("\"ph\":\"X\"", pos)) != std::string::npos; ++pos) {
        ++events;
    }
    EXPECT_EQ(events, profiles.size());
    // balanced braces (cheap well-formedness check)
    long depth = 0;
    for (char c : s) {
        if (c == '{') ++depth;
        if (c == '}') --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(ChromeTrace, EmptyProfiles) {
    std::ostringstream os;
    simt::write_chrome_trace(os, {});
    EXPECT_EQ(os.str(), "{\"traceEvents\":[]}");
}

TEST(Timeline, ListsKernelsSortedByTime) {
    const auto profiles = sample_profiles();
    const auto text = simt::format_timeline(profiles);
    EXPECT_NE(text.find("count"), std::string::npos);
    EXPECT_NE(text.find("%"), std::string::npos);
    // the first listed kernel carries the largest share
    const auto by = simt::aggregate_by_name(profiles);
    double max_ns = 0;
    std::string max_name;
    for (const auto& [name, a] : by) {
        if (a.total_ns > max_ns) {
            max_ns = a.total_ns;
            max_name = name;
        }
    }
    EXPECT_EQ(text.find(max_name), 0u);
}

TEST(Timeline, EmptyIsEmpty) {
    EXPECT_TRUE(simt::format_timeline({}).empty());
}

}  // namespace
