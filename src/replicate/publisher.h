// DeltaPublisher: the write side of a DirectoryFeed.
//
// Assigns every artifact a monotonic sequence number (resumed from the
// directory on Open, so a restarted publisher continues the feed instead
// of renumbering it), writes through a `.tmp` + rename so consumers
// never see a partial artifact, and maintains the feed's retention
// contract: a full-snapshot checkpoint every `checkpoint_every` deltas,
// after which artifacts superseded by a retained checkpoint are garbage
// collected. Late joiners therefore bootstrap from the newest checkpoint
// plus the deltas behind it — never by replaying the feed's whole
// history.
//
// A cadence publish is two steps. AppendDelta writes the delta and
// reports whether a checkpoint is due; CheckpointHead writes that
// checkpoint, possibly later and on another thread (the monitor's
// Refresher runs it on a background writer after the install).
// PublishDelta is the two run back to back. The steps keep one
// invariant: a checkpoint at sequence n holds exactly the state after
// every delta below n. CheckpointHead serializes outside the lock and
// commits only if no newer delta was appended meanwhile (the model's
// content hash still equals the head's); otherwise it writes nothing
// and the cadence stays due for the next publish.
//
// Internally synchronized: every method may be called from any thread.
// Sequence assignment, the rename into place and the artifact sink run
// under one lock, so artifacts reach the sink in sequence order.

#ifndef FALCC_REPLICATE_PUBLISHER_H_
#define FALCC_REPLICATE_PUBLISHER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/falcc.h"
#include "replicate/feed.h"
#include "util/status.h"

namespace falcc::replicate {

struct DeltaPublisherOptions {
  /// Feed directory; created (recursively) by Open if missing.
  std::string dir;
  /// Publish a full-snapshot checkpoint after this many deltas.
  /// 0 disables automatic checkpoints (callers may still publish them
  /// explicitly).
  size_t checkpoint_every = 8;
  /// Checkpoints kept by garbage collection; everything older than the
  /// oldest retained checkpoint is superseded and removed.
  size_t retain_checkpoints = 1;
  /// Run garbage collection after each checkpoint.
  bool gc = true;
};

/// One artifact written by a publish call.
struct PublishedArtifact {
  uint64_t sequence = 0;
  ArtifactKind kind = ArtifactKind::kUnreadable;
  std::string path;
  uint64_t bytes = 0;
};

/// What one publish call did: the delta and/or checkpoint written, plus
/// how many superseded artifacts GC removed.
struct PublishReport {
  std::vector<PublishedArtifact> artifacts;
  size_t gc_removed = 0;
  /// The cadence calls for a checkpoint of the post-delta state that
  /// this call did not write (AppendDelta always leaves it to the
  /// caller; PublishDelta only when its checkpoint failed or was
  /// superseded).
  bool checkpoint_due = false;
};

/// Receives every artifact right after it is renamed into place, with
/// its bytes, before any GC the same call runs. Called under the
/// publisher's lock, in sequence order.
using ArtifactSink = std::function<void(
    const FeedEntry& entry, std::shared_ptr<const std::string> payload)>;

struct DeltaPublisherStats {
  uint64_t deltas = 0;
  uint64_t checkpoints = 0;
  uint64_t gc_removed = 0;
  uint64_t failures = 0;
};

class DeltaPublisher {
 public:
  /// Creates the directory if needed and resumes sequencing after the
  /// highest-numbered artifact already present.
  static Result<DeltaPublisher> Open(DeltaPublisherOptions options);

  /// Step one: serializes `next`'s delta for `clusters` against
  /// `base_hash` (FalccModel::SaveDelta), publishes it as the next feed
  /// entry and makes `next` the feed's head. `checkpoint_due` in the
  /// report says whether the cadence now calls for CheckpointHead(next).
  Result<PublishReport> AppendDelta(const FalccModel& next,
                                    std::span<const size_t> clusters,
                                    uint64_t base_hash);

  /// Step two: publishes `head` as a checkpoint, resets the cadence and
  /// (by option) garbage-collects superseded artifacts, but only if
  /// `head` is still the feed's head and a delta was appended since the
  /// last checkpoint. Otherwise returns an empty report: a newer delta
  /// superseded this checkpoint, and the cadence stays due.
  Result<PublishReport> CheckpointHead(const FalccModel& head);

  /// AppendDelta, then CheckpointHead(next) when the cadence is due —
  /// all reported together. A checkpoint failure is non-fatal: the
  /// delta is out and the cadence stays due for the next publish.
  Result<PublishReport> PublishDelta(const FalccModel& next,
                                     std::span<const size_t> clusters,
                                     uint64_t base_hash);

  /// Publishes `model` as a full-snapshot checkpoint unconditionally,
  /// makes it the feed's head, resets the delta cadence, and (by
  /// option) garbage-collects superseded artifacts.
  Result<PublishReport> PublishCheckpoint(const FalccModel& model);

  /// Installs the sink every later artifact is handed to (see
  /// ArtifactSink). Set it before publishing from other threads.
  void SetArtifactSink(ArtifactSink sink);

  /// The sequence the next published artifact will carry.
  uint64_t next_sequence() const;

  DeltaPublisherStats Stats() const;

 private:
  explicit DeltaPublisher(DeltaPublisherOptions options);

  /// Writes `bytes` to a uniquely named `.tmp` file in the feed
  /// directory (no lock needed); returns its path.
  Result<std::string> Stage(const std::string& stem, const std::string& bytes);
  /// Under the lock: renames a staged file to the next sequence's name,
  /// advances the sequence and hands the artifact to the sink.
  Result<PublishedArtifact> Place(const std::string& staged,
                                  const std::string& stem, FeedEntry entry,
                                  std::shared_ptr<const std::string> payload);
  /// PublishCheckpoint, or with `only_if_head` CheckpointHead.
  Result<PublishReport> WriteCheckpoint(const FalccModel& model,
                                        bool only_if_head);

  /// Removes every artifact superseded by a retained checkpoint.
  size_t GarbageCollect();

  DeltaPublisherOptions options_;
  /// Boxed so the publisher stays movable (Open returns it by value).
  std::unique_ptr<std::mutex> mu_;
  uint64_t next_sequence_ = 1;
  size_t deltas_since_checkpoint_ = 0;
  /// Content hash of the state after the newest published artifact;
  /// unknown after Open resumes behind a delta.
  std::optional<uint64_t> head_hash_;
  ArtifactSink sink_;
  DeltaPublisherStats stats_;
};

}  // namespace falcc::replicate

#endif  // FALCC_REPLICATE_PUBLISHER_H_
