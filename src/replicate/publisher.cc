#include "replicate/publisher.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include "io/snapshot.h"

namespace falcc::replicate {

namespace {

/// Stem of a delta artifact: `delta-c<cluster>[-c<cluster>...]-<base>`.
/// The base hash makes the name self-describing for operators; consumers
/// order by the sequence prefix and chain by the header's base line.
std::string DeltaStem(std::span<const size_t> clusters, uint64_t base_hash) {
  std::string stem = "delta";
  for (size_t c : clusters) stem += "-c" + std::to_string(c);
  return stem + "-" + io::HashHex(base_hash) + ".falcc";
}

}  // namespace

DeltaPublisher::DeltaPublisher(DeltaPublisherOptions options)
    : options_(std::move(options)), mu_(std::make_unique<std::mutex>()) {}

Result<DeltaPublisher> DeltaPublisher::Open(DeltaPublisherOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("DeltaPublisher: empty directory");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::IOError("DeltaPublisher: cannot create '" + options.dir +
                           "': " + ec.message());
  }
  DeltaPublisher publisher(std::move(options));
  // Resume the feed: sequence after the highest existing artifact, and
  // the checkpoint cadence counted from the newest checkpoint so a
  // restart neither renumbers the feed nor doubles the gap between
  // checkpoints. The head is known only when the feed ends in a
  // checkpoint that declares its hash.
  DirectoryFeed feed(publisher.options_.dir);
  Result<std::vector<FeedEntry>> entries = feed.Poll(0);
  if (!entries.ok()) return entries.status();
  size_t deltas_after_checkpoint = 0;
  for (const FeedEntry& entry : entries.value()) {
    publisher.next_sequence_ =
        std::max(publisher.next_sequence_, entry.sequence + 1);
    if (entry.kind == ArtifactKind::kFull) {
      deltas_after_checkpoint = 0;
      publisher.head_hash_ = entry.content_hash;
    } else {
      ++deltas_after_checkpoint;
      publisher.head_hash_.reset();
    }
  }
  publisher.deltas_since_checkpoint_ = deltas_after_checkpoint;
  return publisher;
}

void DeltaPublisher::SetArtifactSink(ArtifactSink sink) {
  std::lock_guard<std::mutex> lock(*mu_);
  sink_ = std::move(sink);
}

uint64_t DeltaPublisher::next_sequence() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return next_sequence_;
}

DeltaPublisherStats DeltaPublisher::Stats() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return stats_;
}

Result<PublishReport> DeltaPublisher::AppendDelta(
    const FalccModel& next, std::span<const size_t> clusters,
    uint64_t base_hash) {
  std::ostringstream out;
  const Status saved = next.SaveDelta(&out, clusters, base_hash);
  std::string bytes = std::move(out).str();
  const std::string stem = DeltaStem(clusters, base_hash);
  Result<std::string> staged =
      saved.ok() ? Stage(stem, bytes) : Result<std::string>(saved);
  const Result<uint64_t> hash = next.ContentHash();
  std::lock_guard<std::mutex> lock(*mu_);
  if (!staged.ok()) {
    ++stats_.failures;
    return staged.status();
  }
  FeedEntry entry;
  entry.kind = ArtifactKind::kDelta;
  entry.base_hash = base_hash;
  Result<PublishedArtifact> placed =
      Place(staged.value(), stem, std::move(entry),
            std::make_shared<const std::string>(std::move(bytes)));
  if (!placed.ok()) return placed.status();
  ++stats_.deltas;
  ++deltas_since_checkpoint_;
  // Without a hash the head is unknown, and no cadence checkpoint can
  // commit until one is published explicitly.
  head_hash_ = hash.ok() ? std::optional<uint64_t>(hash.value()) : std::nullopt;
  PublishReport report;
  report.artifacts.push_back(std::move(placed).value());
  report.checkpoint_due = options_.checkpoint_every > 0 &&
                          deltas_since_checkpoint_ >= options_.checkpoint_every;
  return report;
}

Result<PublishReport> DeltaPublisher::CheckpointHead(const FalccModel& head) {
  return WriteCheckpoint(head, /*only_if_head=*/true);
}

Result<PublishReport> DeltaPublisher::PublishDelta(
    const FalccModel& next, std::span<const size_t> clusters,
    uint64_t base_hash) {
  Result<PublishReport> report = AppendDelta(next, clusters, base_hash);
  if (!report.ok() || !report.value().checkpoint_due) return report;
  // Cadence due: checkpoint the post-delta state so the checkpoint
  // subsumes this delta (and everything before it).
  Result<PublishReport> checkpoint = CheckpointHead(next);
  if (checkpoint.ok() && !checkpoint.value().artifacts.empty()) {
    for (PublishedArtifact& a : checkpoint.value().artifacts) {
      report.value().artifacts.push_back(std::move(a));
    }
    report.value().gc_removed += checkpoint.value().gc_removed;
    report.value().checkpoint_due = false;
  }
  return report;
}

Result<PublishReport> DeltaPublisher::PublishCheckpoint(
    const FalccModel& model) {
  return WriteCheckpoint(model, /*only_if_head=*/false);
}

Result<PublishReport> DeltaPublisher::WriteCheckpoint(const FalccModel& model,
                                                      bool only_if_head) {
  // Serialize and stage outside the lock: this is the expensive part,
  // and deltas keep flowing meanwhile.
  const Result<uint64_t> hash = model.ContentHash();
  std::ostringstream out;
  const Status saved = hash.ok() ? model.Save(&out) : hash.status();
  std::string bytes = std::move(out).str();
  const std::string stem =
      "checkpoint-" + io::HashHex(hash.ValueOr(0)) + ".falcc";
  Result<std::string> staged =
      saved.ok() ? Stage(stem, bytes) : Result<std::string>(saved);
  std::lock_guard<std::mutex> lock(*mu_);
  if (!staged.ok()) {
    ++stats_.failures;
    return staged.status();
  }
  if (only_if_head &&
      (head_hash_ != hash.value() || deltas_since_checkpoint_ == 0)) {
    // Superseded: a newer delta moved the head (this checkpoint would
    // claim a sequence whose state it does not hold), or the head is
    // already checkpointed.
    std::error_code ec;
    std::filesystem::remove(staged.value(), ec);
    return PublishReport{};
  }
  FeedEntry entry;
  entry.kind = ArtifactKind::kFull;
  entry.content_hash = hash.value();
  Result<PublishedArtifact> placed =
      Place(staged.value(), stem, std::move(entry),
            std::make_shared<const std::string>(std::move(bytes)));
  if (!placed.ok()) return placed.status();
  ++stats_.checkpoints;
  deltas_since_checkpoint_ = 0;
  head_hash_ = hash.value();
  PublishReport report;
  report.artifacts.push_back(std::move(placed).value());
  if (options_.gc) {
    report.gc_removed = GarbageCollect();
    stats_.gc_removed += report.gc_removed;
  }
  return report;
}

Result<std::string> DeltaPublisher::Stage(const std::string& stem,
                                          const std::string& bytes) {
  // Unique per process so concurrent steps never share a staging file;
  // the `.tmp` suffix keeps it invisible to every feed scan.
  static std::atomic<uint64_t> counter{0};
  const std::string temp = options_.dir + "/" + stem + "." +
                           std::to_string(counter.fetch_add(1)) + ".tmp";
  std::ofstream out(temp, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("DeltaPublisher: cannot open '" + temp + "'");
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    std::error_code ec;
    std::filesystem::remove(temp, ec);
    return Status::IOError("DeltaPublisher: write to '" + temp + "' failed");
  }
  return temp;
}

Result<PublishedArtifact> DeltaPublisher::Place(
    const std::string& staged, const std::string& stem, FeedEntry entry,
    std::shared_ptr<const std::string> payload) {
  const std::string path =
      options_.dir + "/" + SequencedName(next_sequence_, stem);
  // The rename is the publication point: consumers either see the whole
  // artifact or none of it.
  std::error_code ec;
  std::filesystem::rename(staged, path, ec);
  if (ec) {
    std::filesystem::remove(staged, ec);
    ++stats_.failures;
    return Status::IOError("DeltaPublisher: rename to '" + path +
                           "' failed: " + ec.message());
  }
  entry.sequence = next_sequence_++;
  entry.path = path;
  entry.bytes = payload->size();
  PublishedArtifact artifact;
  artifact.sequence = entry.sequence;
  artifact.kind = entry.kind;
  artifact.path = path;
  artifact.bytes = entry.bytes;
  if (sink_) sink_(entry, std::move(payload));
  return artifact;
}

size_t DeltaPublisher::GarbageCollect() {
  DirectoryFeed feed(options_.dir);
  Result<std::vector<FeedEntry>> entries = feed.Poll(0);
  if (!entries.ok()) return 0;
  // The oldest retained checkpoint's sequence is the GC horizon: a late
  // joiner bootstraps from a checkpoint at or after it, so everything
  // strictly older is unreachable. Unreadable artifacts never count as
  // checkpoints — retention must not anchor on a corrupt file.
  std::vector<uint64_t> checkpoints;
  for (const FeedEntry& entry : entries.value()) {
    if (entry.kind == ArtifactKind::kFull) checkpoints.push_back(entry.sequence);
  }
  const size_t retain = std::max<size_t>(options_.retain_checkpoints, 1);
  if (checkpoints.size() < retain) return 0;
  const uint64_t horizon = checkpoints[checkpoints.size() - retain];
  size_t removed = 0;
  for (const FeedEntry& entry : entries.value()) {
    if (entry.sequence >= horizon) continue;
    std::error_code ec;
    if (std::filesystem::remove(entry.path, ec) && !ec) ++removed;
  }
  return removed;
}

}  // namespace falcc::replicate
