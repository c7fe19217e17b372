// falcc_perfbench: one workload run of the open-loop decision benchmark.
//
//   falcc_perfbench --workload online_light --seed 11 --seconds 10 --trace 0
//
// The last line of standard output is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Earlier lines carry the hardware/build fingerprint and the
// ops of each phase; the full report (and, traced, the spans) is written
// under --out-dir. Exit status: 0 when every decision checked out, 1 on
// any mismatch or failed operation, 2 on a usage or set-up error.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "accounting.h"
#include "report.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  RunOptions run;
  bool seed_given = false;
  std::string out_dir = ".bench_build/perfbench-out";
  BuildInfo build{"unknown", "unknown"};
};

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "falcc_perfbench: %s\nusage: falcc_perfbench --workload "
               "NAME [--seed N] [--seconds S] [--trace 0|1] [--work-dir D] "
               "[--out-dir D] [--git-commit C] [--source-digest H]\n"
               "workloads:",
               why.c_str());
  for (const WorkloadInfo& w : Workloads()) {
    std::fprintf(stderr, " %s (default seed %llu)", w.name,
                 static_cast<unsigned long long>(w.default_seed));
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool Parse(int argc, char** argv, Args* args, std::string* error) {
  args->run.work_dir = ".bench_build/work";
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = "missing value for " + key;
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      args->run.workload = value;
    } else if (key == "--seed") {
      args->run.seed = std::strtoull(value.c_str(), &end, 10);
      args->seed_given = true;
      if (end == value.c_str() || *end != '\0') {
        *error = "bad --seed";
        return false;
      }
    } else if (key == "--seconds") {
      args->run.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || args->run.seconds < 1.0 ||
          args->run.seconds > 60.0) {
        *error = "--seconds must be a number in [1, 60]";
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace must be 0 or 1";
        return false;
      }
      args->run.trace = value == "1";
    } else if (key == "--work-dir") {
      args->run.work_dir = value;
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else if (key == "--git-commit") {
      args->build.git_commit = value;
    } else if (key == "--source-digest") {
      args->build.source_digest = value;
    } else {
      *error = "unknown flag " + key;
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!Parse(argc, argv, &args, &error)) return Usage(error);
  bool known = false;
  for (const WorkloadInfo& w : Workloads()) {
    if (args.run.workload == w.name) {
      known = true;
      if (!args.seed_given) args.run.seed = w.default_seed;
    }
  }
  if (!known) return Usage("unknown or missing --workload");

  const RunOptions& run = args.run;
  const std::string fingerprint = FingerprintJson(
      args.build, run.workload, run.seed, run.seconds, run.trace);
  std::printf("{\"fingerprint\": %s}\n", fingerprint.c_str());
  std::fflush(stdout);

  Tracer tracer(run.trace);
  RunResult result;
  try {
    result = RunWorkload(run, &tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "falcc_perfbench: %s\n", e.what());
    return 2;
  }

  const Verdict verdict = Judge(result.phases, result.errors.size());
  std::ostringstream phases;
  for (const PhaseOps& ops : result.phases) {
    std::ostringstream line;
    line << "{\"phase\": " << JsonString(ops.phase) << ", \"sent\": "
         << ops.sent << ", \"succeeded\": " << ops.succeeded
         << ", \"failed\": " << ops.failed << "}";
    std::printf("%s\n", line.str().c_str());
    phases << (phases.tellp() > 0 ? ", " : "") << line.str();
  }
  for (const std::string& why : result.errors) {
    std::fprintf(stderr, "falcc_perfbench: check failed: %s\n", why.c_str());
  }

  const auto& catalogue = run.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::ostringstream metrics;
  for (const MetricDef& m : catalogue) {
    const auto it = result.values.find(m.name);
    if (it == result.values.end()) {
      std::fprintf(stderr, "falcc_perfbench: metric %s was not measured\n",
                   m.name);
      return 2;
    }
    std::printf("%-36s %16s %s\n", m.name, JsonNumber(it->second).c_str(),
                m.unit);
    metrics << (metrics.tellp() > 0 ? ", " : "") << JsonString(m.name)
            << ": {\"value\": " << JsonNumber(it->second)
            << ", \"unit\": " << JsonString(m.unit) << "}";
  }

  if (!run.trace) {
    for (const MetricDef& m : InfoMetrics()) {
      const auto it = result.values.find(m.name);
      if (it == result.values.end()) continue;
      std::printf("%-36s %16s %s (not bounded)\n", m.name,
                  JsonNumber(it->second).c_str(), m.unit);
    }
  }

  // Full report: fingerprint, phases, every value measured, errors.
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string stem = args.out_dir + "/" + run.workload + "-seed" +
                           std::to_string(run.seed) + "-trace" +
                           (run.trace ? "1" : "0");
  {
    std::ofstream report(stem + ".json");
    report << "{\"fingerprint\": " << fingerprint << ",\n \"phases\": ["
           << phases.str() << "],\n \"values\": {";
    bool first = true;
    for (const auto& [name, value] : result.values) {
      report << (first ? "" : ", ") << JsonString(name) << ": "
             << JsonNumber(value);
      first = false;
    }
    report << "},\n \"errors\": [";
    for (size_t i = 0; i < result.errors.size(); ++i) {
      report << (i ? ", " : "") << JsonString(result.errors[i]);
    }
    report << "]}\n";
  }
  if (run.trace && !tracer.WriteJsonl(stem + ".spans.jsonl")) {
    std::fprintf(stderr, "falcc_perfbench: cannot write spans\n");
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              verdict.correct ? "true" : "false",
              static_cast<unsigned long long>(verdict.attempted),
              static_cast<unsigned long long>(verdict.failed),
              metrics.str().c_str());
  return verdict.correct ? 0 : 1;
}
