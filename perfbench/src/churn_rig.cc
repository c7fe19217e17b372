// The churn rig: a monitored primary publishing refresh deltas over a
// unix socket to a replica fleet, and the poller step that measures one
// refresh from alarm to fleet-wide convergence.

#include <algorithm>
#include <filesystem>
#include <limits>
#include <sstream>
#include <thread>

#include "common.h"
#include "util/parallel.h"

namespace perfbench {

namespace fs = std::filesystem;
using falcc::ClassifyRequest;
using falcc::SampleDecision;

namespace {

constexpr size_t kReplicas = 2;
constexpr size_t kProbeChunk = 256;
constexpr double kConvergeTimeoutS = 10.0;

}  // namespace

ChurnRig::~ChurnRig() {
  if (fleet != nullptr) fleet->StopAll();
}

std::unique_ptr<ChurnRig> OpenChurnRig(const std::string& model_path,
                                       const std::string& dir, size_t shards,
                                       double* load_mapped_s) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  auto rig = std::make_unique<ChurnRig>();

  falcc::serve::ShardedEngineOptions engine_options;
  engine_options.num_shards = shards;
  rig->primary = std::make_unique<falcc::serve::ShardedEngine>(engine_options);
  const int64_t t0 = NowNs();
  Check(rig->primary->ReloadMapped(model_path), "primary load");
  if (load_mapped_s != nullptr) *load_mapped_s = (NowNs() - t0) * 1e-9;

  // Small windows and a low CUSUM threshold so a flipped cluster alarms
  // within tens of milliseconds; every 4th delta is followed by a
  // checkpoint, so checkpoint writes sit inside freshness_p90.
  const std::string endpoint = "unix://" + dir + "/feed.sock";
  falcc::monitor::MonitorOptions monitor_options;
  monitor_options.log_capacity = 1 << 16;
  monitor_options.window = 64;
  monitor_options.detector.threshold = 0.25;
  monitor_options.detector.slack = 0.02;
  monitor_options.detector.min_samples = 32;
  monitor_options.delta_dir = dir + "/feed";
  monitor_options.checkpoint_every = 4;
  monitor_options.feed_listen = endpoint;
  rig->monitor = Take(falcc::monitor::FairnessMonitor::Attach(
                          rig->primary.get(), monitor_options),
                      "monitor attach");

  falcc::replicate::ReplicaFleetOptions fleet_options;
  fleet_options.num_replicas = kReplicas;
  fleet_options.feed_endpoint = endpoint;
  // The publisher listens lazily (first install); keep the replicas'
  // reconnect backoff short so they are subscribed by the first event.
  fleet_options.socket.reconnect_initial_seconds = 0.005;
  fleet_options.socket.reconnect_max_seconds = 0.05;
  fleet_options.puller.backoff_initial_seconds = 0.005;
  fleet_options.puller.poll_interval_seconds = 0.02;
  rig->fleet =
      std::make_unique<falcc::replicate::ReplicaFleet>(fleet_options);
  Check(rig->fleet->Bootstrap(model_path), "fleet bootstrap");
  rig->fleet->StartAll();
  return rig;
}

std::vector<size_t> PollAndTrack(ChurnRig* rig, ChurnStats* stats,
                                 const std::vector<double>& flat, size_t width,
                                 size_t* probe_cursor, bool keep_deltas,
                                 Tracer* tracer) {
  const int64_t t0 = NowNs();
  const falcc::monitor::MonitorPollResult result =
      Take(rig->monitor->Poll(), "monitor poll");
  const int64_t t1 = NowNs();
  stats->poll_ms.push_back((t1 - t0) * 1e-6);
  tracer->Record("monitor.poll", t0, t1);

  std::vector<size_t> installed;
  for (const falcc::monitor::RefreshOutcome& outcome : result.refreshes) {
    ++stats->attempts;
    stats->refresh_ms.push_back(outcome.seconds * 1e3);
    if (!outcome.installed) continue;
    installed.push_back(outcome.cluster);
    ++stats->installed;
    if (outcome.delta_bytes > 0) {
      stats->delta_bytes.push_back(static_cast<double>(outcome.delta_bytes));
    }
  }
  if (installed.empty()) return result.new_alarms;

  const std::shared_ptr<const falcc::FalccModel> head =
      rig->primary->snapshot();
  const uint64_t target = Take(head->ContentHash(), "primary hash");
  std::shared_ptr<const falcc::FalccModel> base;
  if (!stats->versions.empty()) {
    base = stats->versions.back().model;
    stats->versions.back().hi_ns = t1;
  }
  stats->versions.push_back(
      {head, t0, std::numeric_limits<int64_t>::max()});

  int64_t first = -1;
  int64_t last = -1;
  const int64_t deadline = t1 + static_cast<int64_t>(kConvergeTimeoutS * 1e9);
  for (;;) {
    const size_t converged = rig->fleet->CountConverged(target);
    const int64_t now = NowNs();
    if (converged >= 1 && first < 0) first = now;
    if (converged == rig->fleet->size()) {
      last = now;
      break;
    }
    if (now > deadline) {
      ++stats->diverged;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  if (keep_deltas && base != nullptr) {
    // The delta a replica applies for this poll's refreshes, kept for the
    // apply replay (the published file may already be garbage-collected
    // behind the checkpoint written after it).
    std::ostringstream delta;
    Check(head->SaveDelta(&delta, installed,
                          Take(base->ContentHash(), "base hash")),
          "replay delta");
    stats->deltas.push_back(delta.str());
  }
  if (last < 0) return result.new_alarms;
  stats->freshness_ms.push_back((last - t0) * 1e-6);
  stats->first_ms.push_back((first - t1) * 1e-6);
  stats->last_ms.push_back((last - t1) * 1e-6);
  tracer->Record("replicate.converge", t1, last);

  // Every replica must now decide exactly as the primary does.
  const int64_t p0 = NowNs();
  falcc::ScopedParallelismCap cap(1);
  const size_t rows = flat.size() / width;
  std::vector<double> chunk;
  chunk.reserve(kProbeChunk * width);
  for (size_t i = 0; i < kProbeChunk; ++i) {
    const size_t r = (*probe_cursor + i) % rows;
    chunk.insert(chunk.end(), flat.begin() + r * width,
                 flat.begin() + (r + 1) * width);
  }
  *probe_cursor = (*probe_cursor + kProbeChunk) % rows;
  ClassifyRequest request;
  request.features = chunk;
  request.num_features = width;
  const std::vector<SampleDecision> expect =
      Take(head->ClassifyBatch(request), "primary probe").decisions;
  for (size_t r = 0; r < rig->fleet->size(); ++r) {
    falcc::Result<falcc::ClassifyResponse> got =
        rig->fleet->engine(r)->ClassifyBatch(request);
    stats->probe_rows += expect.size();
    if (!got.ok()) {
      stats->probe_mismatches += expect.size();
      continue;
    }
    for (size_t i = 0; i < expect.size(); ++i) {
      if (!SameDecision(expect[i], got.value().decisions[i])) {
        ++stats->probe_mismatches;
      }
    }
  }
  tracer->Record("replicate.probe", p0, NowNs());
  return result.new_alarms;
}

void ChurnLayerValues(const ChurnRig& rig, const ChurnStats& stats,
                      Values* values) {
  Values& v = *values;
  v["monitor.poll_ms.p50"] = Percentile(stats.poll_ms, 50);
  v["monitor.poll_ms.p90"] = Percentile(stats.poll_ms, 90);
  v["monitor.refresh_ms.p50"] = Percentile(stats.refresh_ms, 50);
  v["monitor.refresh_ms.p90"] = Percentile(stats.refresh_ms, 90);
  v["monitor.detect_samples.p50"] = Percentile(stats.detect_samples, 50);
  v["monitor.refresh_installed"] = static_cast<double>(stats.installed);
  v["monitor.refresh_attempts"] = static_cast<double>(stats.attempts);
  v["monitor.refresh_install_ratio"] =
      stats.attempts == 0 ? 0.0
                          : static_cast<double>(stats.installed) /
                                static_cast<double>(stats.attempts);
  const falcc::monitor::DecisionLogStats log = rig.monitor->log().Stats();
  v["monitor.log_overwritten"] = static_cast<double>(log.overwritten);
  v["monitor.feedback_missed"] = static_cast<double>(log.feedback_missed);
  v["replicate.first_converged_ms.p50"] = Percentile(stats.first_ms, 50);
  v["replicate.last_converged_ms.p50"] = Percentile(stats.last_ms, 50);
  v["io.delta_bytes.p50"] = Percentile(stats.delta_bytes, 50);

  falcc::replicate::DeltaPullerStats sum;
  for (size_t r = 0; r < rig.fleet->size(); ++r) {
    const falcc::replicate::DeltaPullerStats s = rig.fleet->puller(r)->Stats();
    sum.entries_seen += s.entries_seen;
    sum.deltas_applied += s.deltas_applied;
    sum.full_reloads += s.full_reloads;
    sum.recoveries += s.recoveries;
    sum.quarantined += s.quarantined;
    sum.retries += s.retries;
    sum.feed_errors += s.feed_errors;
  }
  v["replicate.deltas_applied"] = static_cast<double>(sum.deltas_applied);
  v["replicate.full_reloads"] = static_cast<double>(sum.full_reloads);
  v["replicate.recoveries"] = static_cast<double>(sum.recoveries);
  v["replicate.quarantined"] = static_cast<double>(sum.quarantined);
  v["replicate.retries"] = static_cast<double>(sum.retries);
  v["replicate.feed_errors"] = static_cast<double>(sum.feed_errors);
  v["replicate.applied_ratio"] =
      sum.entries_seen == 0
          ? 0.0
          : static_cast<double>(sum.deltas_applied + sum.full_reloads) /
                static_cast<double>(sum.entries_seen);
}

}  // namespace perfbench
