// Compiled-kernel inference benchmark: flat-node SoA traversal
// (ml/compiled_ensemble.h) vs the interpreted per-model prediction path,
// single thread, median of --reps passes over a --rows probe set.
//
// Cases:
//
//  * Model-level — CompiledEnsemble vs Classifier::PredictProbaBatch for
//    the tree families the pool trains: deep and shallow AdaBoost, a
//    bagged random forest, and a single CART. This is the kernel itself,
//    no routing around it.
//  * End-to-end — FalccModel::ClassifyBatch with the fused per-cluster
//    kernels on vs off on a trained FALCC model. Includes validation,
//    transform, and cluster matching, so the speedup is diluted by the
//    stages compilation does not touch (Amdahl), and is reported
//    separately from the kernel-level ratio.
//
// Every case is timed at several batch sizes: each pass covers all probe
// rows in calls of 1, 4 and 32 rows (the few-row segments online serving
// produces, where the kernel's (row, tree) lanes matter) and in one call
// over every row.
//
// Every timed pass re-checks bit-identity: compiled probabilities (and,
// end-to-end, whole decisions) must equal the interpreted ones exactly,
// at every batch size; the binary exits non-zero on any divergence.
// Results go to BENCH_infer.json together with the hardware and build
// fingerprint; `--compiled=off` skips the compiled measurements
// (interpreted baseline only, no speedups).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/falcc.h"
#include "datagen/synthetic.h"
#include "ml/adaboost.h"
#include "ml/compiled_ensemble.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"
#include "util/timer.h"

namespace falcc {
namespace {

// Rows per call; 0 stands for one call over every probe row.
constexpr size_t kBatchSizes[] = {1, 4, 32, 0};

struct CaseResult {
  std::string name;
  size_t batch = 0;  ///< rows per call
  size_t num_trees = 0;
  size_t num_nodes = 0;
  double interpreted_ns_per_row = 0.0;
  double compiled_ns_per_row = 0.0;
  double speedup = 0.0;  ///< interpreted / compiled; 0 when not measured
  bool decisions_identical = true;
  bool end_to_end = false;
};

std::vector<size_t> AllRows(size_t n) {
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = i;
  return rows;
}

std::vector<double> Flatten(const Dataset& data) {
  std::vector<double> flat;
  flat.reserve(data.num_rows() * data.num_features());
  for (size_t i = 0; i < data.num_rows(); ++i) {
    const auto row = data.Row(i);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return flat;
}

double MedianSeconds(std::vector<double> times) {
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Times `fn` (which fills one probe pass) `reps` times after a warmup
/// pass; returns median ns/row.
template <typename Fn>
double MedianNsPerRow(size_t rows, size_t reps, const Fn& fn) {
  fn();  // warmup: page in the tables, size the buffers
  std::vector<double> times(reps);
  for (size_t rep = 0; rep < reps; ++rep) {
    Timer wall;
    fn();
    times[rep] = wall.ElapsedSeconds();
  }
  return MedianSeconds(std::move(times)) * 1e9 / static_cast<double>(rows);
}

/// Calls `fn(begin, count)` over [0, rows) in consecutive calls of
/// `batch` rows (the last one may be shorter).
template <typename Fn>
void ForEachBatch(size_t rows, size_t batch, const Fn& fn) {
  for (size_t begin = 0; begin < rows; begin += batch) {
    fn(begin, std::min(batch, rows - begin));
  }
}

/// One result per batch size for `model`, interpreted vs compiled.
void RunModelCase(const std::string& name, const Classifier& model,
                  const Dataset& probe, size_t reps, bool run_compiled,
                  std::vector<CaseResult>* results) {
  const std::vector<size_t> rows = AllRows(probe.num_rows());
  std::vector<double> interpreted(rows.size());
  std::vector<double> compiled(rows.size());
  const std::span<const size_t> all_rows(rows);

  std::optional<CompiledEnsemble> kernel;
  if (run_compiled) {
    Result<CompiledEnsemble> compiled_kernel = CompiledEnsemble::Compile(model);
    FALCC_CHECK(compiled_kernel.ok(), "bench_infer: compile failed");
    kernel.emplace(std::move(compiled_kernel).value());
  }

  for (size_t batch_size : kBatchSizes) {
    CaseResult result;
    result.name = name;
    result.batch = batch_size == 0 ? rows.size() : batch_size;
    result.interpreted_ns_per_row =
        MedianNsPerRow(rows.size(), reps, [&] {
          ForEachBatch(rows.size(), result.batch, [&](size_t b, size_t n) {
            model.PredictProbaBatch(probe, all_rows.subspan(b, n),
                                    std::span(interpreted).subspan(b, n));
          });
        });
    if (kernel.has_value()) {
      result.num_trees = kernel->num_trees();
      result.num_nodes = kernel->num_nodes();
      result.compiled_ns_per_row = MedianNsPerRow(rows.size(), reps, [&] {
        ForEachBatch(rows.size(), result.batch, [&](size_t b, size_t n) {
          kernel->PredictProbaBatch(probe, all_rows.subspan(b, n),
                                    std::span(compiled).subspan(b, n));
        });
      });
      result.speedup =
          result.interpreted_ns_per_row / result.compiled_ns_per_row;
      result.decisions_identical = interpreted == compiled;
    }
    results->push_back(result);
  }
}

/// Training config for the end-to-end case: a pool of deep AdaBoost
/// ensembles over enough local regions that per-cluster fusion matters.
FalccOptions EndToEndOptions() {
  FalccOptions opt;
  opt.seed = 42;
  opt.fixed_k = 8;
  opt.trainer.pool_size = 8;
  opt.trainer.estimator_grid = {20, 30};
  opt.trainer.depth_grid = {6, 8};
  opt.trainer.accuracy_tolerance = 1.0;  // keep every candidate
  return opt;
}

/// Classifies every probe row in calls of `batch` rows; returns the
/// decisions in row order.
std::vector<SampleDecision> ClassifyInBatches(const FalccModel& model,
                                              const std::vector<double>& flat,
                                              size_t width, size_t batch) {
  const size_t rows = flat.size() / width;
  std::vector<SampleDecision> decisions(rows);
  ForEachBatch(rows, batch, [&](size_t begin, size_t count) {
    ClassifyRequest request;
    request.features = std::span(flat).subspan(begin * width, count * width);
    request.num_features = width;
    Result<ClassifyResponse> r = model.ClassifyBatch(request);
    FALCC_CHECK(r.ok(), "bench_infer: ClassifyBatch failed");
    std::copy(r.value().decisions.begin(), r.value().decisions.end(),
              decisions.begin() + static_cast<std::ptrdiff_t>(begin));
  });
  return decisions;
}

/// One end-to-end result per batch size, fused kernels off vs on.
void RunEndToEnd(FalccModel* model, const std::vector<double>& flat,
                 size_t width, size_t reps, bool run_compiled,
                 std::vector<CaseResult>* results) {
  const size_t rows = flat.size() / width;
  size_t num_nodes = 0;
  if (run_compiled) {
    for (size_t c = 0; c < model->num_clusters(); ++c) {
      num_nodes += model->compiled_combo(c)->num_nodes();
    }
  }

  for (size_t batch_size : kBatchSizes) {
    CaseResult result;
    result.name = "falcc_classify_batch";
    result.end_to_end = true;
    result.batch = batch_size == 0 ? rows : batch_size;
    result.num_nodes = num_nodes;

    std::vector<SampleDecision> interpreted, compiled;
    model->set_use_compiled(false);
    result.interpreted_ns_per_row = MedianNsPerRow(rows, reps, [&] {
      interpreted = ClassifyInBatches(*model, flat, width, result.batch);
    });
    model->set_use_compiled(true);
    if (run_compiled) {
      result.compiled_ns_per_row = MedianNsPerRow(rows, reps, [&] {
        compiled = ClassifyInBatches(*model, flat, width, result.batch);
      });
      result.speedup =
          result.interpreted_ns_per_row / result.compiled_ns_per_row;
      for (size_t i = 0; i < rows; ++i) {
        const SampleDecision& a = interpreted[i];
        const SampleDecision& b = compiled[i];
        if (a.label != b.label || a.probability != b.probability ||
            a.cluster != b.cluster || a.group != b.group ||
            a.model != b.model) {
          result.decisions_identical = false;
        }
      }
    }
    results->push_back(result);
  }
}

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

/// Hardware and build fingerprint: the machine and flags the figures
/// belong to.
std::string HardwareJson() {
  __builtin_cpu_init();
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": \"" << CpuModel() << "\""
      << ", \"avx2\": " << (__builtin_cpu_supports("avx2") ? "true" : "false")
      << ", \"avx512f\": "
      << (__builtin_cpu_supports("avx512f") ? "true" : "false")
      << ", \"compiler\": \"" << FALCC_BENCH_COMPILER << "\""
      << ", \"cxx_flags\": \"" << FALCC_BENCH_CXX_FLAGS << "\""
      << ", \"build_type\": \"" << FALCC_BENCH_BUILD_TYPE << "\"}";
  return out.str();
}

void WriteJson(const std::string& path, size_t rows, size_t reps,
               bool run_compiled, const std::vector<CaseResult>& results) {
  double min_kernel_speedup = 0.0;
  for (const CaseResult& r : results) {
    if (r.end_to_end || r.speedup <= 0.0) continue;
    if (min_kernel_speedup == 0.0 || r.speedup < min_kernel_speedup) {
      min_kernel_speedup = r.speedup;
    }
  }
  std::ofstream out(path);
  FALCC_CHECK(static_cast<bool>(out), "cannot open BENCH_infer.json");
  out << "{\n";
  out << "  \"benchmark\": \"compiled_inference\",\n";
  out << "  \"schema\": 2,\n";
  out << "  \"dataset\": \"implicit\",\n";
  out << "  \"rows\": " << rows << ",\n";
  out << "  \"reps\": " << reps << ",\n";
  out << "  \"threads\": " << Parallelism() << ",\n";
  out << "  \"compiled\": " << (run_compiled ? "true" : "false") << ",\n";
  out << "  \"hardware\": " << HardwareJson() << ",\n";
  out << "  \"note\": \"ns_per_row = median of reps passes over all rows, "
         "each pass made of calls of `batch` rows (batch = rows: one call); "
         "model-level cases time the bare kernels, falcc_classify_batch is "
         "the full online path (validate + transform + match + predict) so "
         "its ratio is Amdahl-diluted; decisions_identical = compiled output "
         "bit-equal to interpreted; min_kernel_speedup is over every "
         "model-level case and batch\",\n";
  out << "  \"cases\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    out << "    {\"case\": \"" << r.name << "\", \"batch\": " << r.batch
        << ", \"end_to_end\": " << (r.end_to_end ? "true" : "false")
        << ", \"num_trees\": " << r.num_trees
        << ", \"num_nodes\": " << r.num_nodes
        << ", \"interpreted_ns_per_row\": " << r.interpreted_ns_per_row
        << ", \"compiled_ns_per_row\": " << r.compiled_ns_per_row
        << ", \"speedup\": " << r.speedup << ", \"decisions_identical\": "
        << (r.decisions_identical ? "true" : "false") << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"min_kernel_speedup\": " << min_kernel_speedup << "\n";
  out << "}\n";
}

int Main(int argc, char** argv) {
  // Single-thread by default: the kernel claim is per-core, and the
  // model-level loops are serial either way. --threads still overrides.
  SetParallelism(1);
  bench::ApplyThreadsFlag(&argc, argv);
  bench::PrintThreadHeader("bench_infer");

  std::string json_path = "BENCH_infer.json";
  size_t rows = 20000;
  size_t reps = 5;
  bool run_compiled = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      json_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--rows=", 7) == 0) {
      rows = static_cast<size_t>(std::max(1L, std::atol(argv[i] + 7)));
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = static_cast<size_t>(std::max(1L, std::atol(argv[i] + 7)));
    } else if (std::strcmp(argv[i], "--compiled=off") == 0) {
      run_compiled = false;
    } else if (std::strcmp(argv[i], "--compiled=on") == 0) {
      run_compiled = true;
    }
  }

  SyntheticConfig cfg;
  cfg.num_samples = 2000;
  cfg.seed = 31;
  const Dataset train = GenerateImplicitBias(cfg).value();
  cfg.num_samples = rows;
  cfg.seed = 32;
  const Dataset probe = GenerateImplicitBias(cfg).value();

  std::vector<CaseResult> results;

  {
    AdaBoostOptions opt;
    opt.num_estimators = 40;
    opt.base.max_depth = 8;
    AdaBoost model(opt);
    FALCC_CHECK(model.Fit(train).ok(), "bench_infer: fit failed");
    RunModelCase("adaboost_deep", model, probe, reps, run_compiled, &results);
  }
  {
    AdaBoostOptions opt;
    opt.num_estimators = 20;
    opt.base.max_depth = 4;
    AdaBoost model(opt);
    FALCC_CHECK(model.Fit(train).ok(), "bench_infer: fit failed");
    RunModelCase("adaboost_shallow", model, probe, reps, run_compiled, &results);
  }
  {
    RandomForestOptions opt;
    opt.num_trees = 40;
    opt.base.max_depth = 10;
    RandomForest model(opt);
    FALCC_CHECK(model.Fit(train).ok(), "bench_infer: fit failed");
    RunModelCase("random_forest", model, probe, reps, run_compiled, &results);
  }
  {
    DecisionTreeOptions opt;
    opt.max_depth = 12;
    DecisionTree model(opt);
    FALCC_CHECK(model.Fit(train).ok(), "bench_infer: fit failed");
    RunModelCase("single_tree", model, probe, reps, run_compiled, &results);
  }
  {
    cfg.num_samples = 6000;
    cfg.seed = 33;
    const Dataset e2e_train = GenerateImplicitBias(cfg).value();
    Result<FalccModel> model =
        FalccModel::Train(e2e_train, probe, EndToEndOptions());
    FALCC_CHECK(model.ok(), "bench_infer: train failed");
    const std::vector<double> flat = Flatten(probe);
    RunEndToEnd(&model.value(), flat, probe.num_features(), reps,
                run_compiled, &results);
  }

  bool all_identical = true;
  for (const CaseResult& r : results) {
    std::printf(
        "%-22s batch %6zu   interpreted %9.1f ns/row   compiled %9.1f "
        "ns/row   speedup %5.2fx   identical=%s\n",
        r.name.c_str(), r.batch, r.interpreted_ns_per_row,
        r.compiled_ns_per_row,
        r.speedup, r.decisions_identical ? "true" : "false");
    all_identical = all_identical && r.decisions_identical;
  }
  WriteJson(json_path, rows, reps, run_compiled, results);
  std::printf("\nwrote %s\n", json_path.c_str());
  if (!all_identical) {
    std::fprintf(stderr,
                 "bench_infer: compiled decisions diverged from the "
                 "interpreted path\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace falcc

int main(int argc, char** argv) { return falcc::Main(argc, argv); }
