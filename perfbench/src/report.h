// Metric catalogue, hardware/build fingerprint, and JSON rendering of a
// run's result.

#ifndef FALCC_PERFBENCH_REPORT_H_
#define FALCC_PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "accounting.h"

namespace perfbench {

/// One declared metric. The catalogue mirrors BENCHMARK.json: every run
/// prints all end-to-end metrics untraced and all per-layer metrics
/// traced, in this order.
struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();
/// Printed by untraced runs beside the end-to-end metrics but not part
/// of the result line: the decision p99 (too dependent on the host's CPU
/// steal to carry a regression bound, see README.md) and the sample
/// counts behind the percentiles.
const std::vector<MetricDef>& InfoMetrics();

/// What a workload run hands back to main.
struct RunResult {
  std::vector<std::string> errors;  ///< failed checks
  std::vector<PhaseOps> phases;
  std::map<std::string, double> values;  ///< every metric measured
};

/// Build facts baked in at compile time plus what the wrapper passes in.
struct BuildInfo {
  std::string git_commit;     ///< "unknown" outside a git checkout
  std::string source_digest;  ///< sha256 over the sources, from run.sh
};

/// Hardware and build fingerprint as one JSON object.
std::string FingerprintJson(const BuildInfo& build, const std::string& workload,
                            uint64_t seed, double seconds, bool trace);

/// Full-precision JSON number ("%.10g"; non-finite values become 0).
std::string JsonNumber(double value);
std::string JsonString(const std::string& text);

/// Peak resident set of this process in MiB (getrusage).
double PeakRssMiB();

}  // namespace perfbench

#endif  // FALCC_PERFBENCH_REPORT_H_
