// Pieces shared by the workloads: model specs and set-up, request
// identity, the decision recorder, the churn rig (monitored primary plus
// replica fleet), and the per-layer replays of the traced run.

#ifndef FALCC_PERFBENCH_COMMON_H_
#define FALCC_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "accounting.h"
#include "core/falcc.h"
#include "monitor/monitor.h"
#include "replicate/fleet.h"
#include "report.h"
#include "serve/sharded_engine.h"
#include "workloads.h"

namespace perfbench {

using Values = std::map<std::string, double>;

/// Fixed shape of one workload; see README.md for why each was chosen.
struct Spec {
  const char* name;
  uint64_t default_seed;
  bool serving_scale;  ///< 24-model k=32 pool, else the replication scale
  size_t shards;
  double rate;  ///< Poisson arrivals, decisions/s
  double zipf;  ///< routing-key skew exponent (0 = uniform)
  size_t saturation_window;  ///< in-flight cap of the saturation phase
  bool churn;   ///< monitored primary + replicas (refresh_churn)
};

constexpr size_t kSetupRepeats = 3;
constexpr size_t kProbeRows = 8192;
constexpr size_t kNumKeys = 1024;
/// Saturation-phase slices whose median rate is capacity_dps.
constexpr size_t kCapacitySlices = 10;
/// Requests written out as spans per traced phase (bounds the file).
constexpr size_t kMaxTracedRequests = 20000;

[[noreturn]] void Die(const std::string& what);
void Check(const falcc::Status& status, const std::string& what);
template <typename T>
T Take(falcc::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}

bool SameDecision(const falcc::SampleDecision& a,
                  const falcc::SampleDecision& b);

std::vector<double> Flatten(const falcc::Dataset& data);

/// `model.ClassifyBatch` over every row of `flat`: the reference every
/// served decision is compared with.
std::vector<falcc::SampleDecision> ReferenceOf(const falcc::FalccModel& model,
                                               const std::vector<double>& flat,
                                               size_t width);

/// A trained model saved to disk, with what each offline step cost.
struct BuiltModel {
  falcc::OfflineStageTimes stages;
  double compile_s = 0.0;
  double save_s = 0.0;
  size_t bytes = 0;
  std::string path;
};

/// Seed-derived probe set (the traffic's feature rows).
falcc::Dataset MakeProbe(uint64_t seed);

/// Trains the spec's model on fixed-seed data (so the model, and with it
/// the per-row cost, is the same for every run seed), recompiles its
/// kernels and saves it to `path`. Spans go under `parent`.
BuiltModel BuildModel(const Spec& spec, const std::string& path,
                      Tracer* tracer, uint64_t parent);

/// Probe row of a feature vector, by content (rows are verified unique).
class RowIndex {
 public:
  RowIndex(const std::vector<double>& flat, size_t width);
  int64_t Find(std::span<const double> features) const;

 private:
  static uint64_t Hash(std::span<const double> row);
  const std::vector<double>* flat_;
  size_t width_;
  size_t mask_ = 0;
  std::vector<int64_t> slots_;  ///< -1 = empty
};

/// Clusters carrying at least half their fair share of the probe, in
/// descending traffic order — the ones a flip or swap is visible on.
std::vector<size_t> BusyClusters(
    const std::vector<falcc::SampleDecision>& decisions, size_t clusters);

/// Monitored primary + replica fleet over a unix-socket delta feed.
/// Members are declared so the fleet stops first, then the monitor (and
/// its publisher), then the primary.
struct ChurnRig {
  std::unique_ptr<falcc::serve::ShardedEngine> primary;
  std::unique_ptr<falcc::monitor::FairnessMonitor> monitor;
  std::unique_ptr<falcc::replicate::ReplicaFleet> fleet;
  ~ChurnRig();
};

std::unique_ptr<ChurnRig> OpenChurnRig(const std::string& model_path,
                                       const std::string& dir, size_t shards,
                                       double* load_mapped_s);

/// What the monitor poller saw, one entry per poll / refresh / event.
struct ChurnStats {
  std::vector<double> poll_ms;
  std::vector<double> refresh_ms;
  std::vector<double> freshness_ms;  ///< latching poll start -> all converged
  std::vector<double> first_ms;      ///< install -> first replica
  std::vector<double> last_ms;       ///< install -> slowest replica
  std::vector<double> detect_samples;
  std::vector<double> delta_bytes;
  std::vector<std::string> deltas;   ///< installed deltas, in chain order
  uint64_t attempts = 0;
  uint64_t installed = 0;
  uint64_t diverged = 0;
  uint64_t probe_rows = 0;
  uint64_t probe_mismatches = 0;
  /// Primary snapshots and the window each may have served in.
  struct Version {
    std::shared_ptr<const falcc::FalccModel> model;
    int64_t lo_ns;
    int64_t hi_ns;
  };
  std::vector<Version> versions;
};

/// One monitor Poll. After an installed refresh it waits until every
/// replica serves the primary's content hash, then classifies 256 probe
/// rows on each replica and compares them field by field with the
/// primary. With `keep_deltas` it also keeps the installed delta for the
/// apply replay. Returns the clusters whose alarm latched in this poll.
std::vector<size_t> PollAndTrack(ChurnRig* rig, ChurnStats* stats,
                                 const std::vector<double>& flat, size_t width,
                                 size_t* probe_cursor, bool keep_deltas,
                                 Tracer* tracer);

/// Fills the monitor.* / replicate.* values (and io.delta_bytes.p50)
/// from a churn rig's stats and counters.
void ChurnLayerValues(const ChurnRig& rig, const ChurnStats& stats,
                      Values* values);

/// Traced-run replays through each layer's public entry points, on one
/// thread: ClassifyBatch at batch 1 and 1024, MatchCluster, GroupOf,
/// CompiledCombo::PredictGroup, DecisionLog::OnDecision, and
/// ApplyDeltaBytes of `deltas` (in chain order) on a side engine loaded
/// from `model_path`. Returns the decision mismatches seen.
uint64_t ReplayLayers(const falcc::FalccModel& model,
                      const falcc::Dataset& probe,
                      const std::vector<double>& flat,
                      const std::vector<falcc::SampleDecision>& reference,
                      const std::string& model_path,
                      const std::vector<std::string>& deltas, Tracer* tracer,
                      Values* values);

/// serve.* / core.* / ml.* histogram figures from the engine's metrics.
void EngineLayerValues(const falcc::serve::MetricsSnapshot& metrics,
                       Values* values);

/// Decision latency figures from scheduled-time latencies (µs, schedule
/// order): segmented p50/p99. Adds an error when p99 lacks support.
void LatencyValues(const std::vector<double>& latency_us, Values* values,
                   std::vector<std::string>* errors);

/// freshness_p50_ms / freshness_p90_ms from install events (ms, time
/// order): the median over segments of at least 100 events each. Adds an
/// error when fewer than 100 events leave p90 without 10 beyond it.
void FreshnessValues(const std::vector<double>& event_ms, Values* values,
                     std::vector<std::string>* errors);

/// Per-layer self time from the tracer, for every layer in the catalogue.
void TraceValues(const Tracer& tracer, Values* values);

std::vector<falcc::serve::ShardStatus> ShardStatuses(
    const falcc::serve::ShardedEngine& engine);

struct SaturationOutcome {
  PhaseOps ops;
  double capacity_dps = 0.0;  ///< median slice completion rate
  double flush_rows = 0.0;    ///< rows per flush over all shards
  uint64_t rejected = 0;      ///< submits the engine refused
};

/// Saturation phase shared by every workload: one thread submits bursts
/// of `spec.saturation_window` requests (so the ring never rejects), then
/// waits on every ticket of the burst and checks its decision against
/// `expect`, the reference of the snapshot that stays live throughout.
/// A rejected submit or a mismatch is a failed op.
SaturationOutcome RunSaturation(falcc::serve::ShardedEngine* engine,
                                const Spec& spec, uint64_t seed,
                                const std::vector<falcc::SampleDecision>& expect,
                                const std::vector<double>& flat, size_t width,
                                double duration_s);

/// online_light / online_heavy (online.cc).
void RunOnline(const Spec& spec, const RunOptions& options, Tracer* tracer,
               RunResult* result);

/// refresh_churn (churn.cc).
void RunChurn(const Spec& spec, const RunOptions& options, Tracer* tracer,
              RunResult* result);

/// Traced online runs: a short synchronous refresh stream on a side
/// churn rig over the workload's own snapshot, so the monitor.* and
/// replicate.* figures exist for every workload (churn.cc).
void SideChurnProbe(const std::string& model_path, const std::string& dir,
                    const std::vector<double>& flat, size_t width,
                    Tracer* tracer, RunResult* result);

}  // namespace perfbench

#endif  // FALCC_PERFBENCH_COMMON_H_
