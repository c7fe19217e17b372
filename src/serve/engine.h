// Snapshot store of the serving layer: immutable FalccModel snapshots
// with atomic hot-swap, the direct batch classification path, and the
// single decision-observer fan-in.
//
// Concurrency model:
//  * The current model lives in a SnapshotPtr (an atomic<shared_ptr>
//    equivalent, see below) together with its install version. Readers
//    take a reference-counted snapshot in a handful of instructions — no
//    blocking mutex on the classification path — and keep classifying on
//    it even if a reload swaps the pointer mid-request; the old model is
//    freed when its last in-flight request drops the reference.
//  * ReloadFromFile/Install build and validate the new model entirely
//    off the serving path (on the calling thread), then publish it with
//    a single atomic store.
//  * Per-sample submission lives in ShardedEngine (serve/sharded_engine.h),
//    whose shard workers read snapshots from this store and fan their
//    decisions in through NotifyDecisions, so one observer sees every
//    decision tagged with the version of the snapshot that made it.
//
// Every entry point reports failures as Status (kUnavailable when no
// snapshot is installed); nothing throws.

#ifndef FALCC_SERVE_ENGINE_H_
#define FALCC_SERVE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>

#include "core/falcc.h"
#include "serve/metrics.h"
#include "util/status.h"

namespace falcc::serve {

/// Kept only for source compatibility: the engine has no flusher thread
/// any more, so `false` is the only legal value (the constructor checks).
struct FalccEngineOptions {
  bool start_flusher = false;
};

/// Subscriber to the engine's decision stream (the monitoring hook).
/// OnDecision is invoked once per successfully classified sample, on
/// whatever thread produced the decision — direct ClassifyBatch callers
/// and shard workers concurrently — so implementations must be
/// thread-safe and cheap: the call sits on the serving hot path.
/// `features` is the sample's original feature vector and is only valid
/// for the duration of the call. `snapshot_version` is the version of
/// the snapshot that made the decision, even when a hot-swap lands while
/// its batch is being classified.
class DecisionObserver {
 public:
  virtual ~DecisionObserver() = default;
  virtual void OnDecision(const SampleDecision& decision,
                          std::span<const double> features,
                          uint64_t snapshot_version) = 0;
};

/// A snapshot together with the version it was installed as.
struct VersionedSnapshot {
  std::shared_ptr<const FalccModel> model;
  uint64_t version = 0;
};

/// Atomically swappable shared_ptr<const FalccModel> plus its install
/// version: the pair is guarded by a one-bit spinlock held only for a
/// reference-count bump (load) or a pointer swap and counter bump
/// (store) — the same technique libstdc++ uses for
/// std::atomic<std::shared_ptr>. We spell it out instead because
/// libstdc++'s reader path (GCC 12) unlocks with relaxed ordering, which
/// is mutually exclusive in practice but leaves no happens-before edge
/// ThreadSanitizer can verify; acquire/release on both sides makes the
/// hot-swap provably race-free. The version is only written under the
/// lock, so load() returns a consistent pair, and version() stays a
/// lock-free atomic read.
class SnapshotPtr {
 public:
  VersionedSnapshot load() const {
    Lock();
    VersionedSnapshot copy{ptr_, version_.load(std::memory_order_relaxed)};
    Unlock();
    return copy;
  }

  void store(std::shared_ptr<const FalccModel> next) {
    Lock();
    ptr_.swap(next);
    version_.fetch_add(1, std::memory_order_release);
    Unlock();
    // `next` now holds the superseded snapshot; it is released here,
    // outside the critical section (destruction can be expensive).
  }

  uint64_t version() const { return version_.load(std::memory_order_acquire); }

 private:
  void Lock() const {
    while (locked_.exchange(true, std::memory_order_acquire)) {
      // One physical core may be all we have: let the lock holder run.
      std::this_thread::yield();
    }
  }
  void Unlock() const { locked_.store(false, std::memory_order_release); }

  mutable std::atomic<bool> locked_{false};
  std::shared_ptr<const FalccModel> ptr_;
  std::atomic<uint64_t> version_{0};
};

/// The snapshot store. Thread-safe: any number of threads may classify
/// and reload concurrently.
class FalccEngine {
 public:
  explicit FalccEngine(FalccEngineOptions options = {});

  FalccEngine(const FalccEngine&) = delete;
  FalccEngine& operator=(const FalccEngine&) = delete;

  // --- Snapshot management ---------------------------------------------

  /// Publishes `model` as the new immutable snapshot.
  void Install(FalccModel model);

  /// Loads and validates a serialized model, then atomically swaps it
  /// in. On failure the current snapshot stays untouched and serving
  /// continues uninterrupted.
  Status ReloadFromFile(const std::string& path);

  /// Like ReloadFromFile, but serves v2 snapshots' compiled kernels
  /// directly out of a read-only file mapping — no deserialize copy of
  /// the hot tables. Decisions are bit-identical to the copying path.
  /// Falls back to the regular loader for v1 artifacts.
  Status ReloadMapped(const std::string& path);

  /// Applies a delta artifact (SaveDelta output) to the installed
  /// snapshot: only the clusters named in the delta are re-validated and
  /// recompiled; every untouched cluster's compiled kernel is shared
  /// pointer-identically with the previous snapshot. Fails without
  /// touching the snapshot when no model is installed, when the delta's
  /// base hash does not match the installed snapshot, or when any delta
  /// section is invalid. Idempotent under at-least-once delivery: a
  /// delta whose result hashes identically to the serving snapshot
  /// succeeds without reinstalling (no version churn).
  Status ApplyDeltaBytes(std::string_view bytes);

  /// Current snapshot (nullptr before the first Install/Reload).
  std::shared_ptr<const FalccModel> snapshot() const {
    return snapshot_.load().model;
  }

  /// Current snapshot and its version, read together.
  VersionedSnapshot versioned_snapshot() const { return snapshot_.load(); }

  /// Monotonic counter, incremented on every successful install.
  uint64_t snapshot_version() const { return snapshot_.version(); }

  // --- Decision subscription -------------------------------------------

  /// Subscribes `observer` to every decision classified against this
  /// store from now on: direct ClassifyBatch calls and the flushes of
  /// any ShardedEngine built on it. Set-once: call before serving
  /// traffic (typically right after the first Install); the engine
  /// keeps shared ownership. The serving paths read the observer with a
  /// single acquire load per batch, so a subscription installed before
  /// traffic is race-free.
  void SetObserver(std::shared_ptr<DecisionObserver> observer);

  /// Fans one classified batch out to the observer, if any.
  /// `features` is the batch's row-major input and `version` the version
  /// of the snapshot that produced `decisions`.
  void NotifyDecisions(std::span<const SampleDecision> decisions,
                       std::span<const double> features,
                       uint64_t version) const;

  // --- Classification ---------------------------------------------------

  /// Direct, caller-thread batch classification on the current
  /// snapshot. kUnavailable when no snapshot is installed.
  Result<ClassifyResponse> ClassifyBatch(const ClassifyRequest& request) const;

  const Metrics& metrics() const { return metrics_; }
  MetricsSnapshot GetMetrics() const { return metrics_.Snapshot(); }

 private:
  SnapshotPtr snapshot_;
  /// Owner + raw publication pointer: hot paths load the raw pointer
  /// (acquire) once per batch instead of taking a shared_ptr reference.
  std::shared_ptr<DecisionObserver> observer_;
  std::atomic<DecisionObserver*> observer_raw_{nullptr};
  /// mutable: recording observability from const classification paths
  /// does not change the engine's logical state. Metrics is internally
  /// thread-safe (relaxed atomics only).
  mutable Metrics metrics_;
};

}  // namespace falcc::serve

#endif  // FALCC_SERVE_ENGINE_H_
