#include "monitor/refresher.h"

#include <sys/resource.h>
#include <unistd.h>

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "replicate/publisher.h"
#include "replicate/socket_feed.h"
#include "util/timer.h"

namespace falcc::monitor {

Refresher::Refresher(serve::FalccEngine* engine, RefresherOptions options)
    : engine_(engine), options_(std::move(options)) {
  FALCC_CHECK(engine_ != nullptr, "Refresher: null engine");
}

Refresher::~Refresher() {
  {
    std::lock_guard<std::mutex> lock(checkpoint_mu_);
    stop_checkpoints_ = true;
  }
  checkpoint_cv_.notify_one();
  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();
}

Result<RefreshOutcome> Refresher::RefreshCluster(const ClusterWindow& window,
                                                 size_t cluster) {
  Timer timer;
  attempts_.fetch_add(1, std::memory_order_relaxed);

  const std::shared_ptr<const FalccModel> snapshot = engine_->snapshot();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("Refresher: no snapshot installed");
  }
  if (cluster >= snapshot->num_clusters()) {
    return Status::InvalidArgument("Refresher: cluster out of range");
  }
  const size_t n = window.labels.size();
  if (n == 0) {
    return Status::InvalidArgument("Refresher: empty window");
  }
  const size_t width = snapshot->num_features();
  if (window.features.size() != n * width || window.groups.size() != n) {
    return Status::InvalidArgument("Refresher: window shape mismatch");
  }

  // The window as a Dataset: PredictMatrix only reads feature rows, so
  // synthetic column names and no sensitive markers suffice.
  std::vector<std::string> names(width);
  for (size_t j = 0; j < width; ++j) names[j] = "f" + std::to_string(j);
  Result<Dataset> data = Dataset::Create(std::move(names), window.features,
                                         width, window.labels, {});
  if (!data.ok()) return data.status();

  const std::vector<std::vector<int>> votes =
      snapshot->pool().PredictMatrix(data.value());
  Result<std::vector<ModelCombination>> combos =
      EnumerateCombinations(snapshot->pool(), snapshot->num_groups());
  if (!combos.ok()) return combos.status();

  AssessmentContext ctx;
  ctx.votes = &votes;
  ctx.labels = data.value().labels();
  ctx.groups = window.groups;
  ctx.num_groups = snapshot->num_groups();
  ctx.mode = snapshot->assess_mode();
  ctx.metric = snapshot->assess_metric();
  ctx.lambda = snapshot->assess_lambda();
  std::vector<size_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);

  Result<double> current = AssessCombination(
      ctx, snapshot->selected_combinations()[cluster], rows);
  if (!current.ok()) return current.status();
  Result<RegionBest> best = ReassessRegion(ctx, combos.value(), rows);
  if (!best.ok()) return best.status();

  RefreshOutcome outcome;
  outcome.cluster = cluster;
  outcome.current_loss = current.value();
  outcome.best_loss = best.value().loss;
  outcome.installed = best.value().loss < current.value();

  if (outcome.installed) {
    ClusterRefresh refresh;
    refresh.cluster = cluster;
    refresh.combination = combos.value()[best.value().index];
    refresh.baseline_loss = best.value().loss;
    Result<FalccModel> clone =
        snapshot->CloneWithRefreshes({&refresh, 1});
    if (!clone.ok()) return clone.status();
    // Delta publication targets replicas still serving the pre-refresh
    // snapshot, so the base hash is computed from it before the swap.
    uint64_t base_hash = 0;
    bool have_base = false;
    if (!options_.delta_dir.empty()) {
      const Result<uint64_t> hash = snapshot->ContentHash();
      have_base = hash.ok();
      base_hash = hash.ValueOr(0);
      if (!have_base) delta_failures_.fetch_add(1, std::memory_order_relaxed);
    }
    // The delta is durable and pushed before the install; a due
    // checkpoint of the installed snapshot follows in the background.
    const bool checkpoint_due =
        have_base && PublishDelta(clone.value(), cluster, base_hash, &outcome);
    engine_->Install(std::move(clone).value());
    installed_.fetch_add(1, std::memory_order_relaxed);
    if (checkpoint_due) PostCheckpoint(engine_->snapshot());
  } else {
    rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  outcome.seconds = timer.ElapsedSeconds();
  return outcome;
}

bool Refresher::PublishDelta(const FalccModel& next, size_t cluster,
                             uint64_t base_hash, RefreshOutcome* outcome) {
  if (publisher_ == nullptr) {
    replicate::DeltaPublisherOptions publisher_options;
    publisher_options.dir = options_.delta_dir;
    publisher_options.checkpoint_every = options_.checkpoint_every;
    if (!options_.feed_listen.empty()) {
      // Socket mode: the SocketPublisher owns the directory publisher,
      // so every artifact is still written to delta_dir (durable store,
      // catch-up source) before being pushed to subscribers.
      replicate::SocketPublisherOptions socket_options;
      socket_options.listen = options_.feed_listen;
      socket_options.publisher = publisher_options;
      Result<std::unique_ptr<replicate::SocketPublisher>> opened =
          replicate::SocketPublisher::Open(std::move(socket_options));
      if (!opened.ok()) {
        delta_failures_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      socket_publisher_ = std::move(opened).value();
      publisher_ = &socket_publisher_->publisher();
    } else {
      Result<replicate::DeltaPublisher> opened =
          replicate::DeltaPublisher::Open(publisher_options);
      if (!opened.ok()) {
        delta_failures_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      own_publisher_ = std::make_unique<replicate::DeltaPublisher>(
          std::move(opened).value());
      publisher_ = own_publisher_.get();
    }
  }
  const size_t clusters[] = {cluster};
  Result<replicate::PublishReport> report =
      publisher_->AppendDelta(next, clusters, base_hash);
  if (!report.ok()) {
    delta_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  delta_published_.fetch_add(1, std::memory_order_relaxed);
  outcome->delta_path = report.value().artifacts.front().path;
  outcome->delta_bytes = report.value().artifacts.front().bytes;
  return report.value().checkpoint_due;
}

void Refresher::PostCheckpoint(std::shared_ptr<const FalccModel> head) {
  {
    std::lock_guard<std::mutex> lock(checkpoint_mu_);
    pending_checkpoint_ = std::move(head);
    if (!checkpoint_thread_.joinable()) {
      checkpoint_thread_ = std::thread([this] { CheckpointLoop(); });
    }
  }
  checkpoint_cv_.notify_one();
}

void Refresher::CheckpointLoop() {
  // Checkpoints are off every latency path, so under CPU contention the
  // serving, refresh and replication threads go first. Lowering a
  // thread's own priority needs no privilege; failure changes nothing.
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), 19);
  std::unique_lock<std::mutex> lock(checkpoint_mu_);
  while (true) {
    checkpoint_cv_.wait(lock, [&] {
      return stop_checkpoints_ || pending_checkpoint_ != nullptr;
    });
    if (stop_checkpoints_) return;
    std::shared_ptr<const FalccModel> head = std::move(pending_checkpoint_);
    lock.unlock();
    // A superseded checkpoint comes back empty and a failed one as an
    // error; either way the cadence stays due for the next delta.
    const Result<replicate::PublishReport> report =
        publisher_->CheckpointHead(*head);
    if (report.ok() && !report.value().artifacts.empty()) {
      checkpoints_published_.fetch_add(1, std::memory_order_relaxed);
    }
    head.reset();
    lock.lock();
  }
}

RefresherStats Refresher::Stats() const {
  RefresherStats stats;
  stats.attempts = attempts_.load(std::memory_order_relaxed);
  stats.installed = installed_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.delta_published = delta_published_.load(std::memory_order_relaxed);
  stats.delta_failures = delta_failures_.load(std::memory_order_relaxed);
  stats.checkpoints_published =
      checkpoints_published_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace falcc::monitor
