// The three workloads: online_light, online_heavy, refresh_churn.
//
// Each run sets its system up several times (setup_s is the median),
// warms it, then drives an open-loop Poisson phase and a saturation
// phase from one generator thread. Only generated inputs reach the
// library. A traced run splits the Poisson phase into an untraced and a
// traced half and then replays the probe set through each layer's public
// entry points for the per-layer figures.

#ifndef FALCC_PERFBENCH_WORKLOADS_H_
#define FALCC_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "accounting.h"
#include "report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for snapshots, feeds and sockets (inside the
  /// checkout). Unix socket paths are derived from it, so keep it short
  /// and relative.
  std::string work_dir;
};

/// Name and default seed of each workload (used when --seed is absent).
struct WorkloadInfo {
  const char* name;
  uint64_t default_seed;
};
const std::vector<WorkloadInfo>& Workloads();

/// Runs one workload. Setup failures throw std::runtime_error; decision
/// mismatches and failed operations are reported in the result.
RunResult RunWorkload(const RunOptions& options, Tracer* tracer);

}  // namespace perfbench

#endif  // FALCC_PERFBENCH_WORKLOADS_H_
