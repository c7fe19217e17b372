// online_light and online_heavy: a 2-shard ShardedEngine on the
// serving-scale model, a decision observer as the completion signal, and
// a hot-swap stream of one-cluster deltas for freshness.

#include <algorithm>
#include <sstream>
#include <thread>

#include "common.h"
#include "util/parallel.h"


namespace perfbench {

using falcc::Dataset;
using falcc::FalccModel;
using falcc::SampleDecision;
using falcc::serve::ShardedEngine;

namespace {

constexpr size_t kSwapEvents = 500;
constexpr double kPoissonShare = 0.6;
constexpr double kWarmupSeconds = 0.3;
constexpr double kDrainTimeoutS = 30.0;

/// The fleet-wide decision observer: checks each decision against the
/// reference of the snapshot version it reports and stamps the
/// completion time of the request that carried its row.
class Recorder final : public falcc::serve::DecisionObserver {
 public:
  Recorder(const RowIndex* index, const std::vector<SampleDecision>* even,
           const std::vector<SampleDecision>* odd, uint64_t base_version,
           size_t rows)
      : index_(index), base_version_(base_version), inflight_(rows) {
    ref_[0] = even;
    ref_[1] = odd;
  }

  void OnDecision(const SampleDecision& decision,
                  std::span<const double> features,
                  uint64_t snapshot_version) override {
    const int64_t now = NowNs();
    const int64_t row = index_->Find(features);
    if (row < 0) {
      unknown_.fetch_add(1, std::memory_order_relaxed);
    } else {
      const size_t parity =
          (snapshot_version - base_version_.load(std::memory_order_acquire)) &
          1;
      const uint32_t request = inflight_[row].load(std::memory_order_relaxed);
      if (!SameDecision(decision, (*ref_[parity])[row])) {
        // The engine reads snapshot_version() after classifying, so a
        // flush that straddles a hot-swap reports the other version. That
        // is possible only for a request sent before the latest swap
        // finished (or while one is running).
        const int64_t swap_start = swap_start_.load(std::memory_order_acquire);
        const int64_t swap_end = swap_end_.load(std::memory_order_acquire);
        const int64_t* sent = sent_ns_.load(std::memory_order_acquire);
        const bool straddles =
            swap_end < swap_start || (sent != nullptr && sent[request] < swap_end);
        if (straddles && SameDecision(decision, (*ref_[parity ^ 1])[row])) {
          stale_.fetch_add(1, std::memory_order_relaxed);
        } else {
          mismatches_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (int64_t* done = done_ns_.load(std::memory_order_acquire)) {
        done[request] = now;
      }
    }
    completed_.fetch_add(1, std::memory_order_release);
  }

  /// Names the request now carrying `row` (before its submit).
  void Pin(size_t row, uint32_t request) {
    inflight_[row].store(request, std::memory_order_relaxed);
  }
  /// Timed phases read sent[request] and stamp done[request]; nullptr =
  /// count only (no hot-swaps run then).
  void SetArrays(const int64_t* sent, int64_t* done) {
    sent_ns_.store(sent, std::memory_order_release);
    done_ns_.store(done, std::memory_order_release);
  }
  void SwapBegin(int64_t t) { swap_start_.store(t, std::memory_order_release); }
  void SwapEnd(int64_t t) { swap_end_.store(t, std::memory_order_release); }

  uint64_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }
  uint64_t mismatches() const { return mismatches_.load(); }
  uint64_t unknown() const { return unknown_.load(); }
  uint64_t stale() const { return stale_.load(); }

  /// Names the snapshot version now serving the first reference (after a
  /// reload of the set-up snapshot).
  void Rebase(uint64_t base_version) {
    base_version_.store(base_version, std::memory_order_release);
  }

 private:
  const RowIndex* index_;
  const std::vector<SampleDecision>* ref_[2];
  std::atomic<uint64_t> base_version_;
  std::vector<std::atomic<uint32_t>> inflight_;
  std::atomic<const int64_t*> sent_ns_{nullptr};
  std::atomic<int64_t*> done_ns_{nullptr};
  std::atomic<int64_t> swap_start_{0};
  std::atomic<int64_t> swap_end_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> mismatches_{0};
  std::atomic<uint64_t> unknown_{0};
  std::atomic<uint64_t> stale_{0};
};

/// One set-up online system. Declared so the engine (which owns the
/// recorder and calls into the references) is destroyed first.
struct OnlineRig {
  Dataset probe;
  std::vector<double> flat;
  size_t width = 0;
  BuiltModel model;
  double load_mapped_s = 0.0;
  double setup_s = 0.0;
  std::vector<SampleDecision> ref[2];
  std::unique_ptr<RowIndex> index;
  std::unique_ptr<FalccModel> v1;
  std::string delta[2];  ///< [0]: v0 -> v1, [1]: v1 -> v0
  uint64_t base_version = 0;
  std::shared_ptr<Recorder> recorder;
  std::unique_ptr<ShardedEngine> engine;
};

std::unique_ptr<OnlineRig> BuildOnline(const Spec& spec,
                                       const RunOptions& options,
                                       Tracer* tracer) {
  const int64_t t0 = NowNs();
  const uint64_t setup_span = tracer->Open("bench.setup", t0);
  auto rig = std::make_unique<OnlineRig>();
  rig->probe = MakeProbe(options.seed);
  rig->flat = Flatten(rig->probe);
  rig->width = rig->probe.num_features();
  rig->model = BuildModel(spec, options.work_dir + "/model.falcc", tracer,
                          setup_span);

  falcc::serve::ShardedEngineOptions engine_options;
  engine_options.num_shards = spec.shards;
  rig->engine = std::make_unique<ShardedEngine>(engine_options);
  int64_t t = NowNs();
  Check(rig->engine->ReloadMapped(rig->model.path), "engine load");
  rig->load_mapped_s = (NowNs() - t) * 1e-9;
  tracer->Record("io.load_mapped", t, NowNs(), setup_span);
  rig->base_version = rig->engine->snapshot_version();

  // The hot-swap pair: one cluster's combination rotated to the next
  // pool model and back, as one-cluster deltas.
  t = NowNs();
  // Cluster 0: a choice that depends on the model only, so the swap
  // costs the same for every run seed.
  const std::shared_ptr<const FalccModel> v0 = rig->engine->snapshot();
  rig->ref[0] = ReferenceOf(*v0, rig->flat, rig->width);
  const size_t cluster = 0;
  falcc::ClusterRefresh refresh;
  refresh.cluster = cluster;
  refresh.combination = v0->selected_combinations()[cluster];
  refresh.combination[0] = (refresh.combination[0] + 1) % v0->pool().size();
  refresh.baseline_loss = v0->baseline_losses().empty()
                              ? 0.0
                              : v0->baseline_losses()[cluster];
  rig->v1 = std::make_unique<FalccModel>(
      Take(v0->CloneWithRefreshes({&refresh, 1}), "clone"));
  const size_t clusters[] = {cluster};
  std::ostringstream forward;
  Check(rig->v1->SaveDelta(&forward, clusters,
                           Take(v0->ContentHash(), "v0 hash")),
        "delta v0->v1");
  std::ostringstream back;
  Check(v0->SaveDelta(&back, clusters, Take(rig->v1->ContentHash(), "v1 hash")),
        "delta v1->v0");
  rig->delta[0] = forward.str();
  rig->delta[1] = back.str();
  rig->ref[1] = ReferenceOf(*rig->v1, rig->flat, rig->width);
  rig->index = std::make_unique<RowIndex>(rig->flat, rig->width);
  rig->recorder = std::make_shared<Recorder>(
      rig->index.get(), &rig->ref[0], &rig->ref[1], rig->base_version,
      rig->probe.num_rows());
  rig->engine->SetDecisionObserver(rig->recorder);
  tracer->Record("bench.reference", t, NowNs(), setup_span);

  const int64_t t1 = NowNs();
  tracer->Close(setup_span, t1);
  rig->setup_s = (t1 - t0) * 1e-9;
  return rig;
}

/// Waits until the recorder has seen `target` completions.
bool Drain(const OnlineRig& rig, uint64_t target) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(kDrainTimeoutS * 1e9);
  while (rig.recorder->completed() < target) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

struct PoissonOutcome {
  PhaseOps ops;
  std::vector<double> latency_us;  ///< schedule order, completed only
  std::vector<double> late_us;
  std::vector<double> submit_ns;   ///< traced phases only
  std::vector<double> swap_ms;
  uint64_t swaps = 0;
  uint64_t swaps_failed = 0;
  double duration_s = 0.0;
  std::vector<uint64_t> shard_samples;
  uint64_t flushes = 0;
  uint64_t samples = 0;
};

PoissonOutcome RunPoisson(OnlineRig* rig, const Spec& spec, uint64_t seed,
                          const std::string& label, double duration_s,
                          bool traced, bool swaps, Tracer* tracer) {
  PoissonOutcome out;
  out.ops.phase = label;
  out.duration_s = duration_s;
  const std::vector<double> offsets = PoissonSchedule(
      StreamSeed(seed, "arrivals-" + label), spec.rate, duration_s);
  const std::vector<uint64_t> keys = ZipfKeys(
      StreamSeed(seed, "keys-" + label), offsets.size(), kNumKeys, spec.zipf);
  const size_t rows = rig->probe.num_rows();
  const size_t row0 = StreamSeed(seed, "row0-" + label) % rows;
  const size_t n = offsets.size();
  std::vector<int64_t> sent(n, 0);
  std::vector<int64_t> done(n, 0);
  std::vector<int64_t> late;
  std::vector<int64_t> submit(traced ? n : 0, 0);
  ShardedEngine* engine = rig->engine.get();
  const uint64_t completed0 = rig->recorder->completed();
  const auto status0 = ShardStatuses(*engine);
  rig->recorder->SetArrays(sent.data(), done.data());

  const int64_t start = NowNs() + 2'000'000;
  std::thread swapper;
  if (swaps) {
    swapper = std::thread([&] {
      falcc::ScopedParallelismCap cap(1);
      for (size_t j = 0; j < kSwapEvents; ++j) {
        // Swaps need no microsecond pacing: sleep rather than spin.
        const int64_t due = start + static_cast<int64_t>(
                                        (j + 0.5) * duration_s / kSwapEvents * 1e9);
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::max<int64_t>(0, due - NowNs())));
        const uint64_t before = engine->snapshot_version();
        const int64_t t0 = NowNs();
        rig->recorder->SwapBegin(t0);
        const falcc::Status status =
            engine->ApplyDeltaBytes(rig->delta[(before - rig->base_version) & 1]);
        const int64_t t1 = NowNs();
        rig->recorder->SwapEnd(t1);
        tracer->Record("serve.apply_delta", t0, t1);
        ++out.swaps;
        if (!status.ok() || engine->snapshot_version() != before + 1) {
          ++out.swaps_failed;
        } else {
          out.swap_ms.push_back((t1 - t0) * 1e-6);
        }
      }
    });
  }

  RunOpenLoop(offsets, start, &late, [&](size_t i) {
    const size_t row = (row0 + i) % rows;
    rig->recorder->Pin(row, static_cast<uint32_t>(i));
    const int64_t t0 = NowNs();
    sent[i] = t0;
    falcc::Result<falcc::serve::ShardTicket> ticket = engine->SubmitWithKey(
        keys[i], std::span<const double>(rig->flat.data() + row * rig->width,
                                         rig->width));
    if (traced) submit[i] = NowNs() - t0;
    ++out.ops.sent;
    if (!ticket.ok()) {
      ++out.ops.failed;
      done[i] = -1;
    }
  });
  if (swapper.joinable()) swapper.join();
  const uint64_t accepted = out.ops.sent - out.ops.failed;
  if (!Drain(*rig, completed0 + accepted)) Die(label + ": decisions lost");
  rig->recorder->SetArrays(nullptr, nullptr);

  const auto status1 = ShardStatuses(*engine);
  for (size_t s = 0; s < status1.size(); ++s) {
    out.shard_samples.push_back(status1[s].samples - status0[s].samples);
    out.flushes += status1[s].flushes - status0[s].flushes;
    out.samples += status1[s].samples - status0[s].samples;
  }
  size_t traced_requests = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t due = ScheduledNs(start, offsets[i]);
    out.late_us.push_back(late[i] * 1e-3);
    if (done[i] <= 0) continue;
    out.latency_us.push_back((done[i] - due) * 1e-3);
    if (!traced) continue;
    out.submit_ns.push_back(static_cast<double>(submit[i]));
    if (traced_requests++ >= kMaxTracedRequests) continue;
    const uint64_t request = tracer->Record("bench.request", due, done[i], 0,
                                            i + 1);
    tracer->Record("bench.gen_late", due, sent[i], request, i + 1);
    tracer->Record("serve.submit", sent[i], sent[i] + submit[i], request, i + 1);
    tracer->Record("serve.engine", sent[i] + submit[i], done[i], request,
                   i + 1);
  }
  out.ops.succeeded = out.ops.sent - out.ops.failed;
  return out;
}

}  // namespace

void RunOnline(const Spec& spec, const RunOptions& options, Tracer* tracer,
               RunResult* result) {
  Values& v = result->values;
  std::vector<double> setup_s;
  std::unique_ptr<OnlineRig> rig;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    rig.reset();
    rig = BuildOnline(spec, options, tracer);
    setup_s.push_back(rig->setup_s);
  }
  v["setup_s"] = Median(setup_s);
  v["ml.train_s"] = rig->model.stages.train_seconds;
  v["cluster.cluster_s"] = rig->model.stages.cluster_seconds;
  v["core.assess_s"] = rig->model.stages.assess_seconds;
  v["ml.compile_ms"] = rig->model.compile_s * 1e3;
  v["io.save_ms"] = rig->model.save_s * 1e3;
  v["io.load_mapped_ms"] = rig->load_mapped_s * 1e3;
  v["io.snapshot_bytes"] = static_cast<double>(rig->model.bytes);
  v["io.delta_bytes.p50"] = Median(
      {static_cast<double>(rig->delta[0].size()),
       static_cast<double>(rig->delta[1].size())});

  // Warm-up: page in the snapshot and settle the service-time models.
  const PoissonOutcome warm = RunPoisson(rig.get(), spec, options.seed, "warmup",
                                   kWarmupSeconds, false, false, tracer);
  result->phases.push_back(warm.ops);

  const double poisson_s = options.seconds * kPoissonShare;
  PoissonOutcome main;
  if (!options.trace) {
    main = RunPoisson(rig.get(), spec, options.seed, "poisson", poisson_s,
                      false, true, tracer);
    result->phases.push_back(main.ops);
    LatencyValues(main.latency_us, &v, &result->errors);
  } else {
    PoissonOutcome plain = RunPoisson(rig.get(), spec, options.seed,
                                      "poisson-untraced", 0.4 * poisson_s,
                                      false, true, tracer);
    result->phases.push_back(plain.ops);
    main = RunPoisson(rig.get(), spec, options.seed, "poisson-traced",
                      0.6 * poisson_s, true, true, tracer);
    result->phases.push_back(main.ops);
    const double p50_plain = Percentile(plain.latency_us, 50);
    const double p50_traced = Percentile(main.latency_us, 50);
    v["bench.trace_overhead_pct"] = (p50_traced / p50_plain - 1.0) * 100.0;
    LatencyValues(main.latency_us, &v, &result->errors);
  }
  PhaseOps swap_ops{"hot_swap", main.swaps, main.swaps - main.swaps_failed,
                    main.swaps_failed};
  result->phases.push_back(swap_ops);
  if (!options.trace) FreshnessValues(main.swap_ms, &v, &result->errors);
  v["bench.gen_late_us.p99"] = Percentile(main.late_us, 99);
  v["bench.offered_dps"] = main.ops.sent / main.duration_s;
  v["serve.submit_ns.p50"] = Percentile(main.submit_ns, 50);
  v["serve.submit_ns.p99"] = Percentile(main.submit_ns, 99);
  v["serve.flush_rows.mean"] =
      main.flushes == 0 ? 0.0 : static_cast<double>(main.samples) / main.flushes;
  v["serve.flushes"] = static_cast<double>(main.flushes);
  double max_shard = 0.0;
  for (uint64_t s : main.shard_samples) max_shard = std::max<double>(max_shard, s);
  v["serve.shard_imbalance"] =
      main.samples == 0 ? 0.0
                        : max_shard * main.shard_samples.size() / main.samples;
  EngineLayerValues(rig->engine->GetMetrics(), &v);

  // Saturation serves the snapshot as set-up loaded it, mapped from the
  // file, so capacity does not depend on which hot-swapped copy, in
  // memory allocated during the Poisson phase, happened to be live.
  Check(rig->engine->ReloadMapped(rig->model.path), "saturation reload");
  rig->base_version = rig->engine->snapshot_version();
  rig->recorder->Rebase(rig->base_version);
  const SaturationOutcome sat =
      RunSaturation(rig->engine.get(), spec, options.seed, rig->ref[0],
                    rig->flat, rig->width, options.seconds - poisson_s);
  result->phases.push_back(sat.ops);
  v["capacity_dps"] = sat.capacity_dps;
  v["serve.flush_rows.saturated"] = sat.flush_rows;

  // Open-loop phases fail only on a refused submit.
  uint64_t rejected = sat.rejected;
  for (const PhaseOps& ops : result->phases) {
    if (ops.phase.rfind("poisson", 0) == 0 || ops.phase == "warmup") {
      rejected += ops.failed;
    }
  }
  v["serve.rejected"] = static_cast<double>(rejected);

  if (options.trace) {
    const std::shared_ptr<const FalccModel> snapshot = rig->engine->snapshot();
    const uint64_t bad = ReplayLayers(
        *snapshot, rig->probe, rig->flat, rig->ref[0], rig->model.path,
        {rig->delta[0], rig->delta[1], rig->delta[0], rig->delta[1]}, tracer,
        &v);
    result->phases.push_back({"replay", 1, bad == 0 ? 1u : 0u, bad == 0 ? 0u : 1u});
    if (bad != 0) result->errors.push_back("layer replay mismatches");
    SideChurnProbe(rig->model.path, options.work_dir + "/side", rig->flat,
                   rig->width, tracer, result);
  }

  const uint64_t mismatches = rig->recorder->mismatches();
  const uint64_t unknown = rig->recorder->unknown();
  v["bench.stale_version_decisions"] = static_cast<double>(rig->recorder->stale());
  if (mismatches != 0 || unknown != 0) {
    result->errors.push_back(std::to_string(mismatches) +
                             " decisions differ from ClassifyBatch, " +
                             std::to_string(unknown) + " unidentified");
    result->phases.push_back({"decision_check", 0, 0, mismatches + unknown});
  }
}

}  // namespace perfbench
