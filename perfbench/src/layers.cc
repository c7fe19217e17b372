// Per-layer figures: replays through each layer's public entry points,
// the engine's own histograms, and span self time.

#include <algorithm>
#include <unordered_set>

#include "common.h"
#include "monitor/decision_log.h"
#include "serve/engine.h"
#include "util/parallel.h"

namespace perfbench {

using falcc::ClassifyRequest;
using falcc::Dataset;
using falcc::FalccModel;
using falcc::SampleDecision;

namespace {

constexpr size_t kReplayReps = 3;
constexpr size_t kB1Calls = 2048;
/// At most this many latency segments, each of at least 1000 decisions.
constexpr size_t kMaxLatencySegments = 200;

/// Runs `body` kReplayReps times under one span each; returns the median
/// nanoseconds per unit of work.
template <typename Body>
double TimedReplay(Tracer* tracer, const char* span, double units,
                   Body&& body) {
  std::vector<double> per_unit;
  for (size_t rep = 0; rep < kReplayReps; ++rep) {
    const int64_t t0 = NowNs();
    body();
    const int64_t t1 = NowNs();
    tracer->Record(span, t0, t1);
    per_unit.push_back(static_cast<double>(t1 - t0) / units);
  }
  return Median(per_unit);
}

}  // namespace

uint64_t ReplayLayers(const FalccModel& model, const Dataset& probe,
                      const std::vector<double>& flat,
                      const std::vector<SampleDecision>& reference,
                      const std::string& model_path,
                      const std::vector<std::string>& deltas, Tracer* tracer,
                      Values* values) {
  falcc::ScopedParallelismCap cap(1);
  Values& v = *values;
  const size_t width = probe.num_features();
  const size_t rows = probe.num_rows();
  uint64_t mismatches = 0;
  falcc::ClassifyScratch scratch;

  auto classify = [&](size_t begin, size_t count) {
    ClassifyRequest request;
    request.features = std::span<const double>(flat.data() + begin * width,
                                               count * width);
    request.num_features = width;
    falcc::Result<falcc::ClassifyResponse> got =
        model.ClassifyBatch(request, &scratch);
    if (!got.ok()) {
      mismatches += count;
      return;
    }
    for (size_t i = 0; i < count; ++i) {
      if (!SameDecision(got.value().decisions[i], reference[begin + i])) {
        ++mismatches;
      }
    }
  };
  const size_t b1_calls = std::min(rows, kB1Calls);
  v["core.classify_ns_per_row.b1"] =
      TimedReplay(tracer, "core.classify_batch.b1", b1_calls, [&] {
        for (size_t i = 0; i < b1_calls; ++i) classify(i, 1);
      });
  const size_t b1024_rows = rows / 1024 * 1024;
  v["core.classify_ns_per_row.b1024"] =
      TimedReplay(tracer, "core.classify_batch.b1024", b1024_rows, [&] {
        for (size_t i = 0; i < b1024_rows; i += 1024) classify(i, 1024);
      });

  v["core.match_ns_per_row"] =
      TimedReplay(tracer, "core.match_cluster", rows, [&] {
        for (size_t i = 0; i < rows; ++i) {
          if (model.MatchCluster(probe.Row(i)) != reference[i].cluster) {
            ++mismatches;
          }
        }
      });
  v["core.group_ns_per_row"] = TimedReplay(tracer, "core.group_of", rows, [&] {
    for (size_t i = 0; i < rows; ++i) {
      falcc::Result<size_t> group = model.GroupOf(probe.Row(i));
      if (!group.ok() || group.value() != reference[i].group) ++mismatches;
    }
  });

  // Kernel replay over the probe's (cluster, group) segments.
  std::vector<std::vector<size_t>> segment(model.num_clusters() *
                                           model.num_groups());
  for (size_t i = 0; i < rows; ++i) {
    segment[reference[i].cluster * model.num_groups() + reference[i].group]
        .push_back(i);
  }
  std::vector<double> out(rows);
  size_t predicted_rows = 0;
  for (const auto& s : segment) predicted_rows += s.size();
  v["ml.predict_ns_per_row"] =
      TimedReplay(tracer, "ml.predict_group", predicted_rows, [&] {
        for (size_t k = 0; k < segment.size(); ++k) {
          const std::vector<size_t>& seg = segment[k];
          if (seg.empty()) continue;
          const size_t c = k / model.num_groups();
          const size_t g = k % model.num_groups();
          const std::shared_ptr<const falcc::CompiledCombo> combo =
              model.compiled_combo(c);
          if (combo == nullptr || !combo->GroupCompiled(g)) continue;
          const std::span<double> dst(out.data(), seg.size());
          combo->PredictGroup(probe, g, seg, dst);
          for (size_t j = 0; j < seg.size(); ++j) {
            if (dst[j] != reference[seg[j]].probability) ++mismatches;
          }
        }
      });

  // Kernel size, computed from the table sizes of the distinct kernels.
  std::unordered_set<const falcc::CompiledCombo*> seen;
  double nodes = 0.0;
  double bytes = 0.0;
  for (size_t c = 0; c < model.num_clusters(); ++c) {
    const std::shared_ptr<const falcc::CompiledCombo> combo =
        model.compiled_combo(c);
    if (combo == nullptr || !seen.insert(combo.get()).second) continue;
    const falcc::CompiledCombo::FlatParts& p = combo->parts();
    nodes += static_cast<double>(combo->num_nodes());
    bytes += static_cast<double>(
        p.feature.size_bytes() + p.threshold.size_bytes() +
        p.children.size_bytes() + p.leaf_proba.size_bytes() +
        p.trees.size_bytes() + p.alphas.size_bytes());
  }
  v["ml.kernel_nodes"] = nodes;
  v["ml.kernel_bytes"] = bytes;

  falcc::monitor::DecisionLog log(1 << 14, width);
  v["monitor.observe_ns"] =
      TimedReplay(tracer, "monitor.on_decision", rows, [&] {
        for (size_t i = 0; i < rows; ++i) {
          log.OnDecision(reference[i], probe.Row(i), 1);
        }
      });

  // Delta apply on a side engine, replaying the chain from the snapshot.
  falcc::serve::FalccEngineOptions side_options;
  side_options.start_flusher = false;
  falcc::serve::FalccEngine side(side_options);
  Check(side.ReloadMapped(model_path), "side engine load");
  std::vector<double> apply_ms;
  for (const std::string& delta : deltas) {
    const int64_t t0 = NowNs();
    const falcc::Status status = side.ApplyDeltaBytes(delta);
    const int64_t t1 = NowNs();
    tracer->Record("replicate.apply_delta", t0, t1);
    if (!status.ok()) {
      ++mismatches;
      continue;
    }
    apply_ms.push_back((t1 - t0) * 1e-6);
  }
  v["replicate.apply_ms"] = Median(apply_ms);
  return mismatches;
}

void EngineLayerValues(const falcc::serve::MetricsSnapshot& m,
                       Values* values) {
  Values& v = *values;
  v["serve.queue_wait_us.p50"] = m.queue_wait.p50_seconds * 1e6;
  v["serve.queue_wait_us.p99"] = m.queue_wait.p99_seconds * 1e6;
  v["serve.engine_total_us.p50"] = m.total.p50_seconds * 1e6;
  v["serve.engine_total_us.p99"] = m.total.p99_seconds * 1e6;
  v["core.validate_us.p50"] = m.validate.p50_seconds * 1e6;
  v["core.transform_us.p50"] = m.transform.p50_seconds * 1e6;
  v["core.match_us.p50"] = m.match.p50_seconds * 1e6;
  v["ml.predict_us.p50"] = m.predict.p50_seconds * 1e6;
}

void LatencyValues(const std::vector<double>& latency_us, Values* values,
                   std::vector<std::string>* errors) {
  bool ok50 = false;
  bool ok99 = false;
  const size_t segments =
      std::clamp<size_t>(latency_us.size() / 1000, 1, kMaxLatencySegments);
  (*values)["decision_p50_us"] =
      SegmentedPercentile(latency_us, 50, segments, &ok50);
  (*values)["decision_p99_us"] =
      SegmentedPercentile(latency_us, 99, segments, &ok99);
  (*values)["decision_samples"] = static_cast<double>(latency_us.size());
  (*values)["decision_windows"] = static_cast<double>(segments);
  if (!ok50 || !ok99) {
    errors->push_back("too few decisions (" +
                      std::to_string(latency_us.size()) +
                      ") for a p99 with 10 samples beyond it");
  }
}

void FreshnessValues(const std::vector<double>& event_ms, Values* values,
                     std::vector<std::string>* errors) {
  bool ok50 = false;
  bool ok90 = false;
  const size_t segments = std::max<size_t>(event_ms.size() / 100, 1);
  (*values)["freshness_p50_ms"] =
      SegmentedPercentile(event_ms, 50, segments, &ok50);
  (*values)["freshness_p90_ms"] =
      SegmentedPercentile(event_ms, 90, segments, &ok90);
  (*values)["freshness_events"] = static_cast<double>(event_ms.size());
  if (!ok50 || !ok90) {
    errors->push_back("too few freshness events (" +
                      std::to_string(event_ms.size()) +
                      ") for a p90 with 10 events beyond it");
  }
}

void TraceValues(const Tracer& tracer, Values* values) {
  for (const MetricDef& def : PerLayerMetrics()) {
    const std::string name = def.name;
    if (name.rfind("trace.self_ms.", 0) == 0) (*values)[name] = 0.0;
  }
  for (const auto& [layer, seconds] : tracer.SelfSecondsByLayer()) {
    const std::string name = "trace.self_ms." + layer;
    if (values->count(name) != 0) (*values)[name] = seconds * 1e3;
  }
}

}  // namespace perfbench
