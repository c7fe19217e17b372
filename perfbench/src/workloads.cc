#include "workloads.h"

#include <filesystem>

#include "common.h"

namespace perfbench {

namespace {

// name, default seed, serving scale, shards, Poisson rate (decisions/s),
// key skew, saturation window, churn.
const Spec kSpecs[] = {
    {"online_light", 11, true, 2, 4000.0, 1.1, 4096, false},
    {"online_heavy", 12, true, 2, 60000.0, 0.0, 4096, false},
    {"refresh_churn", 13, false, 1, 8000.0, 0.0, 1024, true},
};

/// What share of the traced decision p50 each layer's p50 accounts for:
/// serve = submit + queue wait, core = validate + transform + match per
/// flush, ml = predict per flush.
void ShareValues(Values* values) {
  Values& v = *values;
  const double p50 = v["decision_p50_us"];
  if (p50 <= 0.0) return;
  v["bench.share_pct.serve"] =
      (v["serve.submit_ns.p50"] * 1e-3 + v["serve.queue_wait_us.p50"]) / p50 *
      100.0;
  v["bench.share_pct.core"] = (v["core.validate_us.p50"] +
                               v["core.transform_us.p50"] +
                               v["core.match_us.p50"]) /
                              p50 * 100.0;
  v["bench.share_pct.ml"] = v["ml.predict_us.p50"] / p50 * 100.0;
  v["monitor.observe_budget_pct"] = v["monitor.observe_ns"] * 1e-3 / p50 * 100.0;
}

}  // namespace

const std::vector<WorkloadInfo>& Workloads() {
  static const std::vector<WorkloadInfo> kInfo = [] {
    std::vector<WorkloadInfo> info;
    for (const Spec& spec : kSpecs) info.push_back({spec.name, spec.default_seed});
    return info;
  }();
  return kInfo;
}

RunResult RunWorkload(const RunOptions& options, Tracer* tracer) {
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (options.workload == s.name) spec = &s;
  }
  if (spec == nullptr) Die("unknown workload '" + options.workload + "'");
  std::filesystem::create_directories(options.work_dir);

  RunResult result;
  if (spec->churn) {
    RunChurn(*spec, options, tracer, &result);
  } else {
    RunOnline(*spec, options, tracer, &result);
  }
  if (options.trace) {
    ShareValues(&result.values);
    TraceValues(*tracer, &result.values);
  }
  result.values["rss_mb"] = PeakRssMiB();
  return result;
}

}  // namespace perfbench
