#pragma once
// The benchmark's workloads (bench/suite/README.md explains why each one
// exists and which layer it stresses).

#include <string>
#include <vector>

#include "suite.hpp"

namespace gpusel::bench {

/// Workload names in the order `run.sh` runs them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload: set-up, the measured phase and the reference checks.
/// Untraced runs add the end-to-end metrics, traced runs the per-layer
/// ones.  Returns false for an unknown workload name.
[[nodiscard]] bool run_workload(const Options& opts, Outcome& out);

}  // namespace gpusel::bench
