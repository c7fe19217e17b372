#include "report.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"decision_p50_us", "us"},
      {"capacity_dps", "1/s"},
      {"freshness_p50_ms", "ms"},
      {"freshness_p90_ms", "ms"},
      {"rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& InfoMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"decision_p99_us", "us"},
      {"decision_samples", "count"},
      {"decision_windows", "count"},
      {"freshness_events", "count"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      // serve: the sharded engine's hand-off and batching.
      {"serve.submit_ns.p50", "ns"},
      {"serve.submit_ns.p99", "ns"},
      {"serve.queue_wait_us.p50", "us"},
      {"serve.queue_wait_us.p99", "us"},
      {"serve.engine_total_us.p50", "us"},
      {"serve.engine_total_us.p99", "us"},
      {"serve.flush_rows.mean", "rows"},
      {"serve.flush_rows.saturated", "rows"},
      {"serve.flushes", "count"},
      {"serve.rejected", "count"},
      {"serve.shard_imbalance", "ratio"},
      // core: validate, transform, match, the batch entry point, offline
      // assessment.
      {"core.validate_us.p50", "us"},
      {"core.transform_us.p50", "us"},
      {"core.match_us.p50", "us"},
      {"core.classify_ns_per_row.b1", "ns"},
      {"core.classify_ns_per_row.b1024", "ns"},
      {"core.match_ns_per_row", "ns"},
      {"core.group_ns_per_row", "ns"},
      {"core.assess_s", "s"},
      // ml: compiled kernels and pool training.
      {"ml.predict_us.p50", "us"},
      {"ml.predict_ns_per_row", "ns"},
      {"ml.kernel_nodes", "count"},
      {"ml.kernel_bytes", "bytes"},
      {"ml.compile_ms", "ms"},
      {"ml.train_s", "s"},
      // cluster
      {"cluster.cluster_s", "s"},
      // io: snapshot and delta artifacts.
      {"io.snapshot_bytes", "bytes"},
      {"io.delta_bytes.p50", "bytes"},
      {"io.save_ms", "ms"},
      {"io.load_mapped_ms", "ms"},
      // monitor
      {"monitor.observe_ns", "ns"},
      {"monitor.observe_budget_pct", "%"},
      {"monitor.poll_ms.p50", "ms"},
      {"monitor.poll_ms.p90", "ms"},
      {"monitor.refresh_ms.p50", "ms"},
      {"monitor.refresh_ms.p90", "ms"},
      {"monitor.detect_samples.p50", "count"},
      {"monitor.refresh_installed", "count"},
      {"monitor.refresh_attempts", "count"},
      {"monitor.refresh_install_ratio", "ratio"},
      {"monitor.log_overwritten", "count"},
      {"monitor.feedback_missed", "count"},
      // replicate
      {"replicate.first_converged_ms.p50", "ms"},
      {"replicate.last_converged_ms.p50", "ms"},
      {"replicate.apply_ms", "ms"},
      {"replicate.deltas_applied", "count"},
      {"replicate.full_reloads", "count"},
      {"replicate.recoveries", "count"},
      {"replicate.quarantined", "count"},
      {"replicate.retries", "count"},
      {"replicate.feed_errors", "count"},
      {"replicate.applied_ratio", "ratio"},
      // bench: validity of the run itself, and where the time went.
      {"bench.gen_late_us.p99", "us"},
      {"bench.offered_dps", "1/s"},
      {"bench.trace_overhead_pct", "%"},
      {"bench.share_pct.serve", "%"},
      {"bench.share_pct.core", "%"},
      {"bench.share_pct.ml", "%"},
      {"trace.self_ms.bench", "ms"},
      {"trace.self_ms.serve", "ms"},
      {"trace.self_ms.core", "ms"},
      {"trace.self_ms.ml", "ms"},
      {"trace.self_ms.cluster", "ms"},
      {"trace.self_ms.io", "ms"},
      {"trace.self_ms.monitor", "ms"},
      {"trace.self_ms.replicate", "ms"},
  };
  return kMetrics;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

std::string FingerprintJson(const BuildInfo& build, const std::string& workload,
                            uint64_t seed, double seconds, bool trace) {
  __builtin_cpu_init();
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": " << JsonString(CpuModel())
      << ", \"avx2\": " << (__builtin_cpu_supports("avx2") ? "true" : "false")
      << ", \"avx512f\": "
      << (__builtin_cpu_supports("avx512f") ? "true" : "false")
      << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
      << ", \"cxx_flags\": " << JsonString(PERFBENCH_CXX_FLAGS)
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"git_commit\": " << JsonString(build.git_commit)
      << ", \"source_digest\": " << JsonString(build.source_digest)
      << ", \"workload\": " << JsonString(workload) << ", \"seed\": " << seed
      << ", \"seconds\": " << JsonNumber(seconds)
      << ", \"trace\": " << (trace ? 1 : 0) << "}";
  return out.str();
}

}  // namespace perfbench
