#include "common.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "datagen/synthetic.h"

namespace perfbench {

namespace fs = std::filesystem;
using falcc::Dataset;
using falcc::FalccModel;
using falcc::SampleDecision;

void Die(const std::string& what) { throw std::runtime_error(what); }

void Check(const falcc::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

bool SameDecision(const SampleDecision& a, const SampleDecision& b) {
  return a.label == b.label &&
         std::memcmp(&a.probability, &b.probability, sizeof(double)) == 0 &&
         a.cluster == b.cluster && a.group == b.group && a.model == b.model;
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

std::vector<SampleDecision> ReferenceOf(const FalccModel& model,
                                        const std::vector<double>& flat,
                                        size_t width) {
  falcc::ClassifyRequest request;
  request.features = flat;
  request.num_features = width;
  return Take(model.ClassifyBatch(request), "reference classify").decisions;
}

namespace {

constexpr size_t kTrainRows = 6000;
constexpr size_t kValidationRows = 2000;
constexpr uint64_t kTrainSeed = 71;
constexpr uint64_t kValidationSeed = 72;

/// 24 deep AdaBoost ensembles over 32 regions: a ~40 MB snapshot, far
/// larger than L2, the serving-scale model of bench_serve.
falcc::FalccOptions ServingScaleOptions() {
  falcc::FalccOptions opt;
  opt.seed = 42;
  opt.fixed_k = 32;
  opt.trainer.pool_size = 24;
  opt.trainer.estimator_grid = {30, 35, 40, 45, 50, 60};
  opt.trainer.depth_grid = {8, 9};
  opt.trainer.accuracy_tolerance = 1.0;
  return opt;
}

/// 12-model pool, k by LOG-Means: a ~1.4 MB snapshot near L2 size, the
/// replication-scale model of bench_replicate.
falcc::FalccOptions ReplicationScaleOptions() {
  falcc::FalccOptions opt;
  opt.seed = 42;
  opt.trainer.pool_size = 12;
  opt.trainer.estimator_grid = {20, 25};
  opt.trainer.depth_grid = {6, 7};
  opt.trainer.accuracy_tolerance = 1.0;
  return opt;
}

}  // namespace

Dataset MakeProbe(uint64_t seed) {
  falcc::SyntheticConfig cfg;
  cfg.num_samples = kProbeRows;
  cfg.seed = StreamSeed(seed, "probe");
  return Take(falcc::GenerateImplicitBias(cfg), "probe data");
}

BuiltModel BuildModel(const Spec& spec, const std::string& path,
                      Tracer* tracer, uint64_t parent) {
  BuiltModel built;
  int64_t t0 = NowNs();
  falcc::SyntheticConfig cfg;
  cfg.num_samples = kTrainRows;
  cfg.seed = kTrainSeed;
  const Dataset train = Take(falcc::GenerateImplicitBias(cfg), "train data");
  cfg.num_samples = kValidationRows;
  cfg.seed = kValidationSeed;
  const Dataset validation =
      Take(falcc::GenerateImplicitBias(cfg), "validation data");
  int64_t t1 = NowNs();
  tracer->Record("bench.datagen", t0, t1, parent);

  t0 = NowNs();
  FalccModel model = Take(
      FalccModel::Train(train, validation,
                        spec.serving_scale ? ServingScaleOptions()
                                           : ReplicationScaleOptions(),
                        &built.stages),
      "train");
  t1 = NowNs();
  // Train is one public call; its stages are laid end to end inside its
  // span from OfflineStageTimes (pool training, clustering, assessment).
  const uint64_t train_span = tracer->Record("core.train", t0, t1, parent);
  int64_t at = t0;
  const std::pair<const char*, double> stages[] = {
      {"ml.train_pool", built.stages.train_seconds},
      {"cluster.cluster", built.stages.cluster_seconds},
      {"core.assess", built.stages.assess_seconds}};
  for (const auto& [name, seconds] : stages) {
    const int64_t end = at + static_cast<int64_t>(seconds * 1e9);
    tracer->Record(name, at, end, train_span);
    at = end;
  }

  t0 = NowNs();
  Check(model.CompileKernels(), "compile");
  t1 = NowNs();
  built.compile_s = (t1 - t0) * 1e-9;
  tracer->Record("ml.compile", t0, t1, parent);

  t0 = NowNs();
  Check(model.SaveToFile(path), "save " + path);
  t1 = NowNs();
  built.save_s = (t1 - t0) * 1e-9;
  tracer->Record("io.save", t0, t1, parent);
  built.bytes = fs::file_size(path);
  built.path = path;
  return built;
}

uint64_t RowIndex::Hash(std::span<const double> row) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (double v : row) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    h ^= bits;
    h *= 0x100000001B3ull;
    h ^= h >> 29;
  }
  return h;
}

RowIndex::RowIndex(const std::vector<double>& flat, size_t width)
    : flat_(&flat), width_(width) {
  const size_t rows = flat.size() / width;
  size_t cap = 1;
  while (cap < rows * 2) cap <<= 1;
  mask_ = cap - 1;
  slots_.assign(cap, -1);
  for (size_t r = 0; r < rows; ++r) {
    const std::span<const double> row(flat.data() + r * width, width);
    if (Find(row) >= 0) Die("probe set holds a duplicate row");
    size_t slot = Hash(row) & mask_;
    while (slots_[slot] >= 0) slot = (slot + 1) & mask_;
    slots_[slot] = static_cast<int64_t>(r);
  }
}

int64_t RowIndex::Find(std::span<const double> features) const {
  if (features.size() != width_) return -1;
  size_t slot = Hash(features) & mask_;
  while (slots_[slot] >= 0) {
    const int64_t r = slots_[slot];
    if (std::memcmp(flat_->data() + r * width_, features.data(),
                    width_ * sizeof(double)) == 0) {
      return r;
    }
    slot = (slot + 1) & mask_;
  }
  return -1;
}

std::vector<size_t> BusyClusters(const std::vector<SampleDecision>& decisions,
                                 size_t clusters) {
  std::vector<size_t> count(clusters, 0);
  for (const SampleDecision& d : decisions) ++count[d.cluster];
  std::vector<size_t> busy;
  for (size_t c = 0; c < clusters; ++c) {
    if (count[c] * clusters * 2 >= decisions.size()) busy.push_back(c);
  }
  std::stable_sort(busy.begin(), busy.end(),
                   [&](size_t a, size_t b) { return count[a] > count[b]; });
  if (busy.empty()) Die("no cluster carries traffic");
  return busy;
}

std::vector<falcc::serve::ShardStatus> ShardStatuses(
    const falcc::serve::ShardedEngine& engine) {
  std::vector<falcc::serve::ShardStatus> out;
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    out.push_back(engine.GetShardStatus(s));
  }
  return out;
}

SaturationOutcome RunSaturation(falcc::serve::ShardedEngine* engine,
                                const Spec& spec, uint64_t seed,
                                const std::vector<SampleDecision>& expect,
                                const std::vector<double>& flat, size_t width,
                                double duration_s) {
  SaturationOutcome out;
  out.ops.phase = "saturation";
  const std::vector<uint64_t> keys = ZipfKeys(
      StreamSeed(seed, "keys-saturation"), 1 << 16, kNumKeys, spec.zipf);
  const size_t rows = flat.size() / width;
  const size_t window = spec.saturation_window;
  std::vector<falcc::serve::ShardTicket> tickets(window);
  std::vector<uint32_t> ticket_rows(window);
  uint64_t completed = 0;

  const auto status0 = ShardStatuses(*engine);
  RateSlicer slicer(NowNs(), duration_s, kCapacitySlices);
  while (slicer.Tick(NowNs(), completed)) {
    // One burst: a full window of submits, then every ticket taken. A
    // sliding window let the engine settle for hundreds of milliseconds
    // into either of two hand-off regimes (worker parked between rows, or
    // never idle), so slice rates were bimodal; each burst restarts from
    // the same state, and a slice averages hundreds of them.
    size_t filled = 0;
    while (filled < window) {
      const size_t row = out.ops.sent % rows;
      falcc::Result<falcc::serve::ShardTicket> ticket = engine->SubmitWithKey(
          keys[out.ops.sent & 0xFFFF],
          std::span<const double>(flat.data() + row * width, width));
      ++out.ops.sent;
      if (!ticket.ok()) {
        ++out.ops.failed;
        ++out.rejected;
        break;
      }
      tickets[filled] = std::move(ticket).value();
      ticket_rows[filled] = static_cast<uint32_t>(row);
      ++filled;
    }
    for (size_t k = 0; k < filled; ++k) {
      const falcc::Result<SampleDecision> decision = tickets[k].Wait();
      if (!decision.ok() ||
          !SameDecision(decision.value(), expect[ticket_rows[k]])) {
        ++out.ops.failed;
      }
      tickets[k] = falcc::serve::ShardTicket();
    }
    completed += filled;
  }
  out.ops.succeeded = out.ops.sent - out.ops.failed;
  out.capacity_dps = slicer.MedianRate();

  const auto status1 = ShardStatuses(*engine);
  uint64_t flushes = 0;
  uint64_t samples = 0;
  for (size_t s = 0; s < status1.size(); ++s) {
    flushes += status1[s].flushes - status0[s].flushes;
    samples += status1[s].samples - status0[s].samples;
  }
  out.flush_rows = flushes == 0 ? 0.0 : static_cast<double>(samples) / flushes;
  return out;
}

}  // namespace perfbench
