// refresh_churn: a monitored 1-shard primary with a 2-replica socket
// fleet. Ground truth is fed back after a fixed delay; on a fixed epoch
// schedule one cluster's feedback is flipped to 1 - prediction until its
// alarm latches, so the monitor refreshes, publishes a delta, and the
// replicas apply it.

#include <algorithm>
#include <deque>
#include <limits>
#include <thread>

#include "common.h"
#include "util/parallel.h"


namespace perfbench {

using falcc::ClassifyRequest;
using falcc::Dataset;
using falcc::FalccModel;
using falcc::SampleDecision;
using falcc::serve::ShardedEngine;
using falcc::serve::ShardTicket;

namespace {

constexpr double kPoissonShare = 0.65;
constexpr double kWarmupSeconds = 0.5;
constexpr int64_t kEpochNs = 60'000'000;
constexpr int64_t kFeedbackDelayNs = 2'000'000;
/// A decision not logged by then failed; its ticket carries the error.
constexpr int64_t kLogWaitNs = 1'000'000'000;
constexpr size_t kSideEvents = 3;
constexpr size_t kSideChunk = 256;

struct Request {
  uint32_t row = 0;
  bool accepted = false;
  bool failed = false;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  SampleDecision decision;
};

struct PhaseOutcome {
  PhaseOps ops;
  std::vector<double> latency_us;
  std::vector<double> late_us;
  std::vector<double> submit_ns;
  double duration_s = 0.0;
  uint64_t rejected = 0;  ///< submits the engine refused
  uint64_t mismatches = 0;
};

/// Checks every completed request against the primary snapshot(s) that
/// may have served it: the versions whose live window overlaps the
/// request's [sent, done] interval.
uint64_t CheckAgainstVersions(const std::vector<Request>& requests,
                              const std::vector<ChurnStats::Version>& versions,
                              const std::vector<double>& flat, size_t width) {
  falcc::ScopedParallelismCap cap(1);
  std::vector<bool> matched(requests.size(), false);
  for (const ChurnStats::Version& version : versions) {
    std::vector<size_t> ids;
    std::vector<double> rows;
    for (size_t i = 0; i < requests.size(); ++i) {
      const Request& r = requests[i];
      if (!r.accepted || r.failed || matched[i]) continue;
      if (r.sent_ns > version.hi_ns || r.done_ns < version.lo_ns) continue;
      ids.push_back(i);
      rows.insert(rows.end(), flat.begin() + r.row * width,
                  flat.begin() + (r.row + 1) * width);
    }
    if (ids.empty()) continue;
    ClassifyRequest request;
    request.features = rows;
    request.num_features = width;
    const std::vector<SampleDecision> expect =
        Take(version.model->ClassifyBatch(request), "version reference")
            .decisions;
    for (size_t k = 0; k < ids.size(); ++k) {
      if (SameDecision(requests[ids[k]].decision, expect[k])) {
        matched[ids[k]] = true;
      }
    }
  }
  uint64_t mismatches = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    if (r.accepted && !r.failed && !matched[i]) ++mismatches;
  }
  return mismatches;
}

/// Open-loop traffic with delayed feedback, flip epochs and a monitor
/// poller, for `duration_s`.
PhaseOutcome RunChurnPoisson(ChurnRig* rig, ChurnStats* stats,
                             const Spec& spec, uint64_t seed,
                             const std::string& label, double duration_s,
                             bool traced, bool keep_deltas,
                             const std::vector<size_t>& targets,
                             const std::vector<double>& flat, size_t width,
                             Tracer* tracer) {
  PhaseOutcome out;
  out.ops.phase = label;
  out.duration_s = duration_s;
  const std::vector<double> offsets = PoissonSchedule(
      StreamSeed(seed, "arrivals-" + label), spec.rate, duration_s);
  const std::vector<uint64_t> keys = ZipfKeys(
      StreamSeed(seed, "keys-" + label), offsets.size(), kNumKeys, spec.zipf);
  const size_t rows = flat.size() / width;
  const size_t row0 = StreamSeed(seed, "row0-" + label) % rows;
  const size_t n = offsets.size();
  std::vector<Request> requests(n);
  std::vector<ShardTicket> tickets(n);
  std::vector<int64_t> late;
  std::vector<int64_t> submit(traced ? n : 0, 0);
  std::atomic<size_t> published{0};
  std::atomic<bool> generator_done{false};
  std::atomic<bool> stop_poller{false};
  const uint64_t base_id = rig->monitor->log().next_id();
  const int64_t start = NowNs() + 2'000'000;
  const size_t epochs = static_cast<size_t>(duration_s * 1e9 / kEpochNs) + 2;
  std::vector<std::atomic<uint32_t>> flips(epochs);
  std::atomic<int64_t> alarmed_epoch{-1};
  auto epoch_at = [&](int64_t t) {
    return std::clamp<int64_t>((t - start) / kEpochNs, 0,
                               static_cast<int64_t>(epochs) - 1);
  };
  auto target_of = [&](int64_t epoch) {
    return targets[static_cast<size_t>(epoch) % targets.size()];
  };

  std::thread waiter([&] {
    struct Pending {
      uint64_t id;
      int64_t due;
      size_t cluster;
      int label;
    };
    std::deque<Pending> feedback;
    size_t next = 0;
    uint64_t accepted = 0;
    for (;;) {
      const int64_t now = NowNs();
      while (!feedback.empty() && feedback.front().due <= now) {
        const Pending& p = feedback.front();
        const int64_t epoch = epoch_at(now);
        const bool flip = p.cluster == target_of(epoch) &&
                          alarmed_epoch.load(std::memory_order_acquire) != epoch;
        if (flip) flips[epoch].fetch_add(1, std::memory_order_relaxed);
        rig->monitor->AddFeedback(p.id, flip ? 1 - p.label : p.label);
        feedback.pop_front();
      }
      if (next < published.load(std::memory_order_acquire)) {
        Request& r = requests[next];
        if (r.accepted) {
          // The one shard logs decisions in submit order, so this one is
          // log entry base_id + accepted. Spinning on the log rather than
          // sleeping in Wait keeps the waiter's own wake-up out of the
          // latency: as on the online workloads, a decision is visible
          // when the observer (here the monitor's log) receives it.
          const uint64_t id = base_id + accepted;
          const int64_t give_up = NowNs() + kLogWaitNs;
          while (rig->monitor->log().next_id() <= id && NowNs() < give_up) {
            CpuRelax();
          }
          r.done_ns = NowNs();
          falcc::Result<SampleDecision> decision = tickets[next].Wait();
          if (decision.ok()) {
            r.decision = decision.value();
            feedback.push_back({base_id + accepted, r.done_ns + kFeedbackDelayNs,
                                r.decision.cluster, r.decision.label});
          } else {
            r.failed = true;
          }
          ++accepted;
          tickets[next] = ShardTicket();
        }
        ++next;
        continue;
      }
      if (generator_done.load(std::memory_order_acquire) &&
          next == published.load(std::memory_order_acquire) &&
          feedback.empty()) {
        break;
      }
      CpuRelax();
    }
  });

  std::thread poller([&] {
    falcc::ScopedParallelismCap cap(1);
    size_t cursor = 0;
    while (!stop_poller.load(std::memory_order_acquire)) {
      const std::vector<size_t> alarms =
          PollAndTrack(rig, stats, flat, width, &cursor, keep_deltas, tracer);
      const int64_t epoch = epoch_at(NowNs());
      for (size_t c : alarms) {
        if (c == target_of(epoch) &&
            alarmed_epoch.load(std::memory_order_relaxed) != epoch) {
          alarmed_epoch.store(epoch, std::memory_order_release);
          stats->detect_samples.push_back(flips[epoch].load());
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  ShardedEngine* engine = rig->primary.get();
  RunOpenLoop(offsets, start, &late, [&](size_t i) {
    Request& r = requests[i];
    r.row = static_cast<uint32_t>((row0 + i) % rows);
    r.sent_ns = NowNs();
    falcc::Result<ShardTicket> ticket = engine->SubmitWithKey(
        keys[i], std::span<const double>(flat.data() + r.row * width, width));
    if (traced) submit[i] = NowNs() - r.sent_ns;
    ++out.ops.sent;
    if (ticket.ok()) {
      tickets[i] = std::move(ticket).value();
      r.accepted = true;
    } else {
      ++out.ops.failed;
      ++out.rejected;
    }
    published.store(i + 1, std::memory_order_release);
  });
  generator_done.store(true, std::memory_order_release);
  waiter.join();
  stop_poller.store(true, std::memory_order_release);
  poller.join();

  size_t traced_requests = 0;
  for (size_t i = 0; i < n; ++i) {
    const Request& r = requests[i];
    const int64_t due = ScheduledNs(start, offsets[i]);
    out.late_us.push_back(late[i] * 1e-3);
    if (!r.accepted) continue;
    if (r.failed) {
      ++out.ops.failed;
      continue;
    }
    out.latency_us.push_back((r.done_ns - due) * 1e-3);
    if (!traced) continue;
    out.submit_ns.push_back(static_cast<double>(submit[i]));
    if (traced_requests++ >= kMaxTracedRequests) continue;
    const uint64_t request =
        tracer->Record("bench.request", due, r.done_ns, 0, i + 1);
    tracer->Record("bench.gen_late", due, r.sent_ns, request, i + 1);
    tracer->Record("serve.submit", r.sent_ns, r.sent_ns + submit[i], request,
                   i + 1);
    tracer->Record("serve.engine", r.sent_ns + submit[i], r.done_ns, request,
                   i + 1);
  }
  out.mismatches = CheckAgainstVersions(requests, stats->versions, flat, width);
  out.ops.failed += out.mismatches;
  out.ops.succeeded = out.ops.sent - out.ops.failed;
  return out;
}

void ClearEventStats(ChurnStats* stats) {
  ChurnStats fresh;
  fresh.versions = {stats->versions.back()};
  fresh.versions.front().lo_ns = std::numeric_limits<int64_t>::min();
  fresh.deltas = std::move(stats->deltas);  // the replay needs the chain
  // Failures are never forgotten with the warm-up's timings.
  fresh.diverged = stats->diverged;
  fresh.probe_rows = stats->probe_rows;
  fresh.probe_mismatches = stats->probe_mismatches;
  *stats = std::move(fresh);
}

}  // namespace

void RunChurn(const Spec& spec, const RunOptions& options, Tracer* tracer,
              RunResult* result) {
  Values& v = result->values;
  std::vector<double> setup_s;
  std::unique_ptr<ChurnRig> rig;
  Dataset probe;
  BuiltModel model;
  double load_mapped_s = 0.0;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    rig.reset();
    const int64_t t0 = NowNs();
    const uint64_t span = tracer->Open("bench.setup", t0);
    probe = MakeProbe(options.seed);
    model = BuildModel(spec, options.work_dir + "/model.falcc", tracer, span);
    const int64_t t = NowNs();
    rig = OpenChurnRig(model.path, options.work_dir + "/churn", spec.shards,
                       &load_mapped_s);
    tracer->Record("replicate.start_fleet", t, NowNs(), span);
    const int64_t t1 = NowNs();
    tracer->Close(span, t1);
    setup_s.push_back((t1 - t0) * 1e-9);
  }
  v["setup_s"] = Median(setup_s);
  v["ml.train_s"] = model.stages.train_seconds;
  v["cluster.cluster_s"] = model.stages.cluster_seconds;
  v["core.assess_s"] = model.stages.assess_seconds;
  v["ml.compile_ms"] = model.compile_s * 1e3;
  v["io.save_ms"] = model.save_s * 1e3;
  v["io.load_mapped_ms"] = load_mapped_s * 1e3;
  v["io.snapshot_bytes"] = static_cast<double>(model.bytes);

  const std::vector<double> flat = Flatten(probe);
  const size_t width = probe.num_features();
  const std::shared_ptr<const FalccModel> v0 = rig->primary->snapshot();
  const std::vector<size_t> targets =
      BusyClusters(ReferenceOf(*v0, flat, width), v0->num_clusters());

  ChurnStats stats;
  stats.versions.push_back({v0, std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()});
  // Warm-up: the publisher opens its socket on the first install and the
  // replicas subscribe; events of this phase are not counted.
  const PhaseOutcome warm = RunChurnPoisson(
      rig.get(), &stats, spec, options.seed, "warmup", kWarmupSeconds, false,
      options.trace, targets, flat, width, tracer);
  result->phases.push_back(warm.ops);
  uint64_t mismatches = warm.mismatches;
  ClearEventStats(&stats);

  const auto status0 = rig->primary->GetShardStatus(0);
  const double poisson_s = options.seconds * kPoissonShare;
  PhaseOutcome main;
  if (!options.trace) {
    main = RunChurnPoisson(rig.get(), &stats, spec, options.seed, "poisson",
                           poisson_s, false, false, targets, flat, width,
                           tracer);
    result->phases.push_back(main.ops);
  } else {
    const PhaseOutcome plain = RunChurnPoisson(
        rig.get(), &stats, spec, options.seed, "poisson-untraced",
        0.4 * poisson_s, false, true, targets, flat, width, tracer);
    result->phases.push_back(plain.ops);
    mismatches += plain.mismatches;
    main = RunChurnPoisson(rig.get(), &stats, spec, options.seed,
                           "poisson-traced", 0.6 * poisson_s, true, true,
                           targets, flat, width, tracer);
    result->phases.push_back(main.ops);
    v["bench.trace_overhead_pct"] = (Percentile(main.latency_us, 50) /
                                         Percentile(plain.latency_us, 50) -
                                     1.0) *
                                    100.0;
  }
  mismatches += main.mismatches;
  LatencyValues(main.latency_us, &v, &result->errors);
  const auto status1 = rig->primary->GetShardStatus(0);
  const uint64_t flushes = status1.flushes - status0.flushes;
  v["serve.flush_rows.mean"] =
      flushes == 0 ? 0.0
                   : static_cast<double>(status1.samples - status0.samples) /
                         flushes;
  v["serve.flushes"] = static_cast<double>(flushes);
  v["serve.shard_imbalance"] = 1.0;
  v["bench.gen_late_us.p99"] = Percentile(main.late_us, 99);
  v["bench.offered_dps"] = main.ops.sent / main.duration_s;
  v["serve.submit_ns.p50"] = Percentile(main.submit_ns, 50);
  v["serve.submit_ns.p99"] = Percentile(main.submit_ns, 99);
  if (!options.trace) FreshnessValues(stats.freshness_ms, &v, &result->errors);
  const uint64_t events = stats.installed;
  const uint64_t event_failures = stats.diverged;
  result->phases.push_back(
      {"refresh_events", events, events - event_failures, event_failures});
  result->phases.push_back({"replica_probe", stats.probe_rows,
                            stats.probe_rows - stats.probe_mismatches,
                            stats.probe_mismatches});
  EngineLayerValues(rig->primary->GetMetrics(), &v);
  ChurnLayerValues(*rig, stats, &v);

  // Park the replicas' pullers: nothing is published from here on.
  rig->fleet->StopAll();
  const SaturationOutcome sat = RunSaturation(
      rig->primary.get(), spec, options.seed,
      ReferenceOf(*rig->primary->snapshot(), flat, width), flat, width,
      options.seconds - poisson_s);
  result->phases.push_back(sat.ops);
  v["capacity_dps"] = sat.capacity_dps;
  v["serve.flush_rows.saturated"] = sat.flush_rows;
  v["serve.rejected"] =
      static_cast<double>(warm.rejected + main.rejected + sat.rejected);

  if (options.trace) {
    const uint64_t bad =
        ReplayLayers(*rig->primary->snapshot(), probe, flat,
                     ReferenceOf(*rig->primary->snapshot(), flat, width),
                     model.path, stats.deltas, tracer, &v);
    result->phases.push_back(
        {"replay", 1, bad == 0 ? 1u : 0u, bad == 0 ? 0u : 1u});
    if (bad != 0) result->errors.push_back("layer replay mismatches");
  }

  if (mismatches != 0 || stats.probe_mismatches != 0 || stats.diverged != 0 ||
      sat.ops.failed != 0) {
    result->errors.push_back(
        std::to_string(mismatches) + " decisions differ from ClassifyBatch, " +
        std::to_string(stats.probe_mismatches) + " replica probe mismatches, " +
        std::to_string(stats.diverged) + " refreshes never converged, " +
        std::to_string(sat.ops.failed) + " failed saturation ops");
  }
}

void SideChurnProbe(const std::string& model_path, const std::string& dir,
                    const std::vector<double>& flat, size_t width,
                    Tracer* tracer, RunResult* result) {
  falcc::ScopedParallelismCap cap(1);
  std::unique_ptr<ChurnRig> rig = OpenChurnRig(model_path, dir, 1, nullptr);
  const std::shared_ptr<const FalccModel> v0 = rig->primary->snapshot();
  const std::vector<size_t> targets =
      BusyClusters(ReferenceOf(*v0, flat, width), v0->num_clusters());
  ChurnStats stats;
  const size_t rows = flat.size() / width;
  size_t cursor = 0;
  size_t probe_cursor = 0;
  size_t target = 0;
  uint64_t flipped = 0;
  std::vector<double> chunk;
  for (size_t iter = 0; iter < 400 && stats.installed < kSideEvents; ++iter) {
    chunk.clear();
    for (size_t i = 0; i < kSideChunk; ++i) {
      const size_t r = (cursor + i) % rows;
      chunk.insert(chunk.end(), flat.begin() + r * width,
                   flat.begin() + (r + 1) * width);
    }
    cursor = (cursor + kSideChunk) % rows;
    ClassifyRequest request;
    request.features = chunk;
    request.num_features = width;
    const uint64_t base = rig->monitor->log().next_id();
    const falcc::ClassifyResponse response = Take(
        rig->primary->snapshot_store()->ClassifyBatch(request), "side classify");
    for (size_t i = 0; i < response.decisions.size(); ++i) {
      const SampleDecision& d = response.decisions[i];
      const bool flip = d.cluster == targets[target % targets.size()];
      flipped += flip ? 1 : 0;
      rig->monitor->AddFeedback(base + i, flip ? 1 - d.label : d.label);
    }
    for (size_t c : PollAndTrack(rig.get(), &stats, flat, width, &probe_cursor,
                                 false, tracer)) {
      if (c == targets[target % targets.size()]) {
        stats.detect_samples.push_back(static_cast<double>(flipped));
        flipped = 0;
        ++target;
      }
    }
  }
  ChurnLayerValues(*rig, stats, &result->values);
  const uint64_t failed = stats.diverged + stats.probe_mismatches;
  result->phases.push_back(
      {"side_refresh", stats.installed + stats.probe_rows,
       stats.installed + stats.probe_rows - failed, failed});
  if (stats.installed == 0) {
    result->errors.push_back("side refresh probe saw no installed refresh");
  }
  if (failed != 0) result->errors.push_back("side refresh probe diverged");
}

}  // namespace perfbench
