#pragma once
// Shared by the SimTSan and StreamSan suites: both analyzers read their mode
// from the environment through one parser (simt/analyzer.hpp), and each
// suite runs this one table over its own variable.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

#include "simt/analyzer.hpp"

namespace gpusel::testenv {

/// Restores one environment variable when the scope ends.
class EnvRestore {
public:
    explicit EnvRestore(const char* var) : var_(var) {
        if (const char* old = std::getenv(var)) saved_ = old;
    }
    ~EnvRestore() {
        if (saved_) {
            ::setenv(var_, saved_->c_str(), 1);
        } else {
            ::unsetenv(var_);
        }
    }
    EnvRestore(const EnvRestore&) = delete;
    EnvRestore& operator=(const EnvRestore&) = delete;

private:
    const char* var_;
    std::optional<std::string> saved_;
};

/// Checks every accepted spelling of each mode, and that a rejected value
/// throws std::invalid_argument naming `var` and the value.
inline void expect_mode_grammar(const char* var) {
    // nullopt marks a rejected value.
    struct Row {
        const char* value;  ///< nullptr: unset
        std::optional<simt::SanMode> mode;
    };
    const Row rows[] = {
        {nullptr, simt::SanMode::off},    {"", simt::SanMode::off},
        {"0", simt::SanMode::off},        {"off", simt::SanMode::off},
        {"1", simt::SanMode::strict},     {"strict", simt::SanMode::strict},
        {"on", simt::SanMode::strict},    {"2", simt::SanMode::collect},
        {"collect", simt::SanMode::collect}, {"bogus", std::nullopt},
    };
    const EnvRestore restore(var);
    for (const Row& row : rows) {
        if (row.value != nullptr) {
            ::setenv(var, row.value, 1);
        } else {
            ::unsetenv(var);
        }
        const std::string where =
            std::string(var) + "=" + (row.value != nullptr ? row.value : "(unset)");
        if (row.mode) {
            EXPECT_EQ(simt::mode_from_env(var), *row.mode) << where;
            continue;
        }
        try {
            (void)simt::mode_from_env(var);
            ADD_FAILURE() << where << " was accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(var), std::string::npos) << e.what();
            EXPECT_NE(std::string(e.what()).find(row.value), std::string::npos) << e.what();
        }
    }
}

}  // namespace gpusel::testenv
