// FALCC: Fair and Accurate Local Classifications by leveraging Clusters.
//
// The paper's primary contribution (§3). The offline phase precomputes,
// per local region of the validation data, the model combination
// minimizing the combined accuracy/fairness loss L̂; the online phase
// reduces classification of a new sample to (1) applying the stored
// sample-processing transform, (2) a nearest-centroid lookup, and (3) a
// single prediction with the model stored for (cluster, group).
//
// Offline pipeline:
//   diverse model training (or an externally supplied pool)
//     → proxy-discrimination mitigation (none / reweigh / remove)
//     → clustering of the validation data (k-means; k via LOG-Means or
//       fixed — k = 1 recovers global fairness, paper §3.1)
//     → cluster gap-filling (missing sensitive groups get k nearest
//       representatives, §3.5)
//     → model assessment (best combination per cluster, §3.6)

#ifndef FALCC_CORE_FALCC_H_
#define FALCC_CORE_FALCC_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/kdtree.h"
#include "cluster/kmeans.h"
#include "cluster/logmeans.h"
#include "cluster/xmeans.h"
#include "core/assessment.h"
#include "core/model_pool.h"
#include "data/groups.h"
#include "data/transforms.h"
#include "fairness/proxy.h"
#include "io/snapshot.h"
#include "ml/compiled_ensemble.h"
#include "ml/grid_search.h"

namespace falcc {

/// Configuration of the full FALCC pipeline. Defaults follow the paper's
/// evaluation: λ = 0.5, demographic parity, automatic k via LOG-Means,
/// 15-NN gap filling, AdaBoost-based diverse training.
struct FalccOptions {
  double lambda = 0.5;
  /// Group-fairness assessment (default) or the consistency-based
  /// individual-fairness assessment of §3.6 (kConsistency ignores
  /// `metric`).
  AssessmentMode assessment_mode = AssessmentMode::kGroupFairness;
  FairnessMetric metric = FairnessMetric::kDemographicParity;
  ProxyOptions proxy;

  /// How the cluster count is estimated when fixed_k == 0.
  enum class KSelection { kLogMeans, kElbow, kXMeans };
  KSelection k_selection = KSelection::kLogMeans;

  /// 0 = estimate k with the selected estimator; otherwise use this
  /// fixed k (k = 1 yields the global-fairness special case).
  size_t fixed_k = 0;
  KEstimationOptions k_estimation;

  /// Neighbors pulled in per missing sensitive group of a cluster.
  size_t gap_fill_k = 15;

  /// Standardize features before clustering (scale robustness).
  bool standardize = true;

  DiverseTrainerOptions trainer;
  uint64_t seed = 1;
};

/// Wall-clock breakdown of the offline phase, for the runtime benchmark:
/// pool training, clustering (transform + k estimation + k-means + gap
/// filling), and per-cluster assessment.
struct OfflineStageTimes {
  double train_seconds = 0.0;
  double cluster_seconds = 0.0;
  double assess_seconds = 0.0;
};

/// One classified sample with the audit trail of the online phase
/// (§3.7): which local region matched, which sensitive group the sample
/// mapped to, and which pool model produced the decision. Deployments
/// log these so individual decisions stay attributable to a concrete
/// (region, group, model) triple.
struct SampleDecision {
  double probability = 0.0;  ///< P(y = 1) from the model that fired.
  int label = 0;             ///< Hard decision: probability >= 0.5.
  size_t cluster = 0;        ///< Matched region (nearest centroid).
  size_t group = 0;          ///< Sensitive group (nearest observed key).
  size_t model = 0;          ///< Pool index of the model that fired.
};

/// A batch of raw samples for ClassifyBatch. `features` is row-major
/// with `num_features` columns per sample in the model's original
/// (untransformed) feature space; the sample count is implied by
/// `features.size() / num_features`. The request does not own the data —
/// the span must stay valid for the duration of the call.
struct ClassifyRequest {
  std::span<const double> features;
  size_t num_features = 0;
};

/// Wall-clock seconds spent in each stage of one ClassifyBatch call.
/// Feeds the serving layer's per-stage latency histograms.
struct ClassifyStageSeconds {
  double validate = 0.0;   ///< shape + finiteness checks
  double transform = 0.0;  ///< sample processing (§3.7 step 1)
  double match = 0.0;      ///< nearest-centroid + group routing
  double predict = 0.0;    ///< grouped batch inference
};

/// Result of one ClassifyBatch call: per-sample decisions (in request
/// order) plus the stage timing of the call itself.
struct ClassifyResponse {
  std::vector<SampleDecision> decisions;
  ClassifyStageSeconds stages;
};

/// Reusable buffers for the online kernel. ClassifyBatch allocates its
/// transform matrix, counting-sort arrays, probability buffer, and the
/// request-wrapping Dataset out of one of these instead of per call; the
/// default entry point keeps one instance per thread, so steady-state
/// serving performs no per-batch heap allocation beyond the response
/// itself. A scratch holds no model state — any instance works with any
/// model (buffers grow, and the wrapper Dataset rebuilds itself when the
/// schema it cached no longer matches).
struct ClassifyScratch {
  std::vector<double> transformed;  ///< n × transformed-width matrix
  std::vector<size_t> offsets;      ///< counting sort: segment bounds
  std::vector<size_t> cursor;       ///< counting sort: fill cursors
  std::vector<size_t> rows;         ///< row ids grouped by kernel segment
  std::vector<double> proba;        ///< per-row P(y=1), segment order
  Dataset wrap;                     ///< ClassifyBatch request wrapper
  bool wrap_valid = false;
};

/// One per-cluster replacement applied by CloneWithRefreshes: the
/// monitor's refresh path swaps a drifted cluster's model combination
/// (and its new baseline L̂) without touching any other cluster.
struct ClusterRefresh {
  size_t cluster = 0;
  ModelCombination combination;
  /// Windowed L̂ of the new combination — becomes the cluster's stored
  /// baseline so drift detection restarts against the refreshed state.
  double baseline_loss = 0.0;
};

/// A trained FALCC classifier (offline phase output + online phase).
class FalccModel {
 public:
  FalccModel(FalccModel&&) = default;
  FalccModel& operator=(FalccModel&&) = default;

  /// Full offline phase: trains a diverse pool on `train`, then runs
  /// mitigation, clustering, and assessment on `validation`. When
  /// `stage_times` is non-null, the per-stage wall-clock breakdown is
  /// written there.
  static Result<FalccModel> Train(const Dataset& train,
                                  const Dataset& validation,
                                  const FalccOptions& options = {},
                                  OfflineStageTimes* stage_times = nullptr);

  /// Offline phase with an externally supplied model pool (framework
  /// generality, §3.1; e.g. fair classifiers for the FALCC* variant).
  /// `pool_entropy` is optional metadata for reporting.
  static Result<FalccModel> TrainWithPool(ModelPool pool,
                                          const Dataset& validation,
                                          const FalccOptions& options = {},
                                          double pool_entropy = 0.0);

  /// Serializes the full trained model (pool, transform, centroids,
  /// group index, per-cluster combinations) in the v2 sectioned
  /// container of io/snapshot.h: per-section checksums, a content hash,
  /// an optional compiled-kernel `flat` section, and delta support. The
  /// legacy v1 whitespace-token stream (header `falcc-model-v1`) is
  /// load-only: a v1 artifact re-saves as v2 with identical decisions.
  /// Requires every pool model's type to support
  /// serialization (true for everything the built-in diverse trainer
  /// produces). Training-time diagnostics (validation_assignment) are
  /// not persisted — a loaded model classifies identically but reports
  /// an empty assignment.
  Status Save(std::ostream* out) const;
  /// Deserializes (either format, sniffed from the first bytes),
  /// validates, and compiles the per-cluster inference kernels (see
  /// "Compiled inference" below), so a loaded model serves from the
  /// fused path immediately. For v2 artifacts every section checksum is
  /// verified and a failure names the section and its file offset; the
  /// `flat` section, when present, is additionally checked bit-for-bit
  /// against freshly compiled kernels.
  static Result<FalccModel> Load(std::istream* in);
  /// File-path convenience wrappers.
  Status SaveToFile(const std::string& path) const;
  static Result<FalccModel> LoadFromFile(const std::string& path);

  /// Zero-copy load of a v2 artifact: the file is mmapped and the
  /// compiled kernel tables in its `flat` section are served directly
  /// out of the mapping (after full structural validation) instead of
  /// being recompiled — decisions are bit-identical to Load. The file
  /// must not be modified in place while the model is alive (replace
  /// via write-new + rename). Falls back to Load semantics when the
  /// artifact has no flat section.
  static Result<FalccModel> LoadMapped(const std::string& path);

  // --- Delta publication -----------------------------------------------
  //
  // A refresh touches one cluster's combination; shipping the full
  // snapshot to every serving replica for that is O(model). SaveDelta
  // writes a `falcc-delta-v2` artifact holding only the listed clusters'
  // combo sections plus the content hash of the snapshot it applies to;
  // ApplyDeltaBytes replays it onto a loaded model, re-validating only
  // the shipped sections and leaving every untouched cluster's compiled
  // kernel pointer-identical.

  /// Serializes only `clusters`' combo sections as a delta against the
  /// snapshot whose content hash is `base_hash` (normally the hash of
  /// the model this one was cloned from).
  Status SaveDelta(std::ostream* out, std::span<const size_t> clusters,
                   uint64_t base_hash) const;

  /// Applies a delta artifact to this model: returns a clone with the
  /// shipped clusters' combinations (and baselines) replaced. Fails with
  /// FailedPrecondition (naming both hashes) when the delta's base hash
  /// does not match this model's content hash, and InvalidArgument on
  /// any malformed or non-applicable section. Idempotent: a delta whose
  /// sections are already live bit for bit (an at-least-once feed
  /// redelivery — the post-apply content hash equals this model's) is a
  /// success no-op returning an identical clone.
  Result<FalccModel> ApplyDeltaBytes(std::string_view bytes) const;

  /// Computes (and caches) the v2 manifest of this model, making
  /// ContentHash O(1). FalccEngine::Install calls this before freezing a
  /// snapshot; requires a serializable pool.
  Status EnsureManifest();
  /// The snapshot's identity (see io::SnapshotManifest::ContentHash).
  /// O(1) after EnsureManifest / a v2 load; otherwise serializes once.
  Result<uint64_t> ContentHash() const;
  /// Cached manifest, if any (v2 load or EnsureManifest).
  const std::optional<io::SnapshotManifest>& manifest() const {
    return manifest_;
  }

  /// Clone with the listed clusters' combinations (and baseline L̂)
  /// replaced — the monitor's refresh primitive. The clone shares this
  /// model's pool and every untouched cluster's compiled kernel pointer
  /// for pointer, so the clone is O(refreshed clusters), not O(model);
  /// it classifies bit-identically to this model on every cluster not
  /// listed. Each refresh is validated: cluster in range, one applicable
  /// pool model per sensitive group.
  Result<FalccModel> CloneWithRefreshes(
      std::span<const ClusterRefresh> refreshes) const;

  // --- Online phase -----------------------------------------------------
  //
  // Input contract (all entry points below): a sample is a feature
  // vector in the model's original, untransformed feature space — it
  // must have exactly num_features() values and every value must be
  // finite. `ClassifyBatch` and `GroupOf` report violations as an
  // InvalidArgument Status; the remaining entry points treat a
  // malformed sample as a programming error in the embedding code and
  // abort with a diagnostic (FALCC_CHECK) instead of silently reading
  // out of bounds. Servers should route traffic through ClassifyBatch.

  /// Validated, batched classification — the serving entry point.
  /// Checks the request shape (width match, divisibility) and rejects
  /// NaN/Inf values with a sample/column diagnostic before touching any
  /// model state. Decisions are returned in request order and each
  /// carries the full (cluster, group, model) audit trail.
  Result<ClassifyResponse> ClassifyBatch(const ClassifyRequest& request) const;

  /// Same, with caller-owned scratch buffers — for callers that manage
  /// their own threading and want allocation reuse across batches. The
  /// scratch must not be shared between concurrent calls.
  Result<ClassifyResponse> ClassifyBatch(const ClassifyRequest& request,
                                         ClassifyScratch* scratch) const;

  // --- Compiled inference ----------------------------------------------
  //
  // Train and Load lower every cluster's model combination into a fused
  // flat-node kernel (ml/compiled_ensemble.h); the online batch path
  // then walks one node table per (cluster, group) row segment instead
  // of dispatching per model. Kernels are derived state: never
  // serialized, shared between clusters that selected the same
  // combination, and shared with refresh clones for untouched clusters.
  // Decisions are bit-identical with the kernels on or off.

  /// (Re)compiles the per-cluster kernels from the current pool and
  /// combinations. Idempotent in effect; called by Train and Load, and
  /// by FalccEngine::Install for models that bypassed both.
  Status CompileKernels();
  /// Whether per-cluster kernels are built.
  bool has_compiled_kernels() const {
    return !compiled_.empty() && compiled_.size() == centroids_.size();
  }
  /// Routing toggle for the online batch path (A/B runs, tests). The
  /// single-sample entry points always use the interpreted path.
  void set_use_compiled(bool use_compiled) { use_compiled_ = use_compiled; }
  bool use_compiled() const { return use_compiled_; }
  /// Compiled kernel serving `cluster` (nullptr when not compiled).
  std::shared_ptr<const CompiledCombo> compiled_combo(size_t cluster) const {
    return cluster < compiled_.size() ? compiled_[cluster] : nullptr;
  }
  /// Drops the kernels (memory reclaim for offline-only use; tests force
  /// FalccEngine::Install's recompile path with this). Classification
  /// falls back to the interpreted path until CompileKernels runs again.
  void ClearCompiledKernels() {
    compiled_.clear();
    combo_slot_.clear();
    slot_kernel_.clear();
  }

  /// Checks one sample against the input contract above.
  Status ValidateSample(std::span<const double> features) const;

  /// Width of the original feature space every sample must match.
  size_t num_features() const {
    return clustering_transform_.num_input_features();
  }

  /// Online phase: classifies one sample given its original features.
  /// Runs the same stage sequence as ClassifyBatch on a single sample
  /// (bit-identical result); aborts on malformed input per the contract
  /// above.
  int Classify(std::span<const double> features) const;

  /// P(y = 1) from the model selected for (sample's region, sample's
  /// group) — the probabilistic form of Classify.
  double ClassifyProba(std::span<const double> features) const;

  /// Hard labels for every row of `data`. Equivalent to extracting
  /// `label` from ClassifyBatch over the same rows; aborts if the
  /// dataset width differs from num_features().
  std::vector<int> ClassifyAll(const Dataset& data) const;

  /// Online steps exposed for tests and the runtime benchmark.
  /// MatchCluster aborts on malformed input; GroupOf returns it as an
  /// InvalidArgument Status.
  size_t MatchCluster(std::span<const double> features) const;
  Result<size_t> GroupOf(std::span<const double> features) const;

  size_t num_clusters() const { return centroids_.size(); }
  size_t num_groups() const { return group_index_.num_groups(); }
  const ModelPool& pool() const { return *pool_; }
  double pool_entropy() const { return pool_entropy_; }
  /// Chosen combination per cluster.
  const std::vector<ModelCombination>& selected_combinations() const {
    return selected_;
  }
  /// Cluster id of each validation row (diagnostics / tests).
  const std::vector<size_t>& validation_assignment() const {
    return assignment_;
  }

  // --- Monitoring anchors ----------------------------------------------
  //
  // The offline phase freezes each cluster's combination against the
  // validation split; the drift monitor needs the L̂ that selection
  // achieved (per cluster) plus the assessment parameters to re-evaluate
  // the same loss over an online window. Both are persisted in the
  // snapshot. Models saved before monitoring existed load with an empty
  // baseline vector (see has_baseline_losses()).

  /// Offline L̂ of the selected combination, per cluster (the drift
  /// detector's reference level). Empty for legacy artifacts.
  const std::vector<double>& baseline_losses() const {
    return baseline_loss_;
  }
  bool has_baseline_losses() const {
    return baseline_loss_.size() == centroids_.size();
  }
  /// Assessment parameters the baselines (and any refresh) are measured
  /// under — Eq. 2's λ plus the fairness metric / assessment mode.
  double assess_lambda() const { return assess_lambda_; }
  FairnessMetric assess_metric() const { return assess_metric_; }
  AssessmentMode assess_mode() const { return assess_mode_; }

 private:
  FalccModel() = default;

  static Result<FalccModel> RunOfflinePhase(ModelPool pool,
                                            const Dataset& validation,
                                            const FalccOptions& options,
                                            double pool_entropy,
                                            OfflineStageTimes* stage_times =
                                                nullptr);

  /// v1 load body; `compile` gates kernel compilation (tests exercise
  /// the uncompiled path).
  static Result<FalccModel> LoadImpl(std::istream* in, bool compile);

  /// v2 load body over a parsed container. When `backing` is non-null
  /// the artifact bytes outlive the model (mmap path) and compiled
  /// kernels alias the flat section; otherwise kernels are compiled from
  /// the pool and the flat section only cross-checks them.
  static Result<FalccModel> LoadV2(io::SnapshotReader reader,
                                   std::shared_ptr<const void> backing);

  Status SaveV2(std::ostream* out, io::SnapshotManifest* manifest_out) const;
  /// Serializes one cluster's combo section (combination + optional
  /// baseline) — the unit a delta ships.
  void WriteComboSection(std::ostream* out, size_t cluster) const;
  /// Canonical kernel-slot layout: clusters dedup by combination value
  /// in first-appearance order (a pure function of selected_, unlike the
  /// pointer-identity slots of RebuildComboSlots). `slot_clusters[s]` is
  /// the first cluster of slot s.
  void CanonicalSlots(std::vector<uint32_t>* slot_of_cluster,
                      std::vector<size_t>* slot_clusters) const;

  /// (Re)builds centroid_index_ from centroids_. Called after training
  /// and after Load — the index is derived state and never serialized.
  Status BuildCentroidIndex();

  /// Rebuilds the cluster → kernel-slot mapping from compiled_ (slots
  /// dedup by kernel identity, so the counting sort keys stay dense).
  void RebuildComboSlots();

  /// Shared online-phase kernel behind ClassifyAll and ClassifyBatch:
  /// transform → nearest-centroid match + group routing → batch
  /// inference grouped by fused kernel segment (or by model on the
  /// interpreted path). `data` rows must already satisfy the width
  /// contract. Writes one SampleDecision per row (row order) and the
  /// per-stage wall clock into `*response`.
  void ClassifyRowsInto(const Dataset& data, ClassifyResponse* response,
                        ClassifyScratch* scratch) const;

  /// Shared, not owned: refresh clones point at the same immutable pool
  /// (the pool is by far the largest model component, and a refresh
  /// never changes it).
  std::shared_ptr<const ModelPool> pool_;
  double pool_entropy_ = 0.0;
  GroupIndex group_index_;
  ColumnTransform clustering_transform_;  // §3.7 step 1 (sample processing)
  std::vector<std::vector<double>> centroids_;
  /// kd-tree over centroids_ for the online nearest-centroid lookup;
  /// gives identical answers to the linear scan (KdTree::Nearest1).
  std::optional<KdTree> centroid_index_;
  std::vector<size_t> assignment_;            // validation rows -> cluster
  std::vector<ModelCombination> selected_;    // cluster -> combination
  std::vector<double> baseline_loss_;         // cluster -> offline L̂
  /// Fused per-cluster kernels (derived, never serialized). Clusters
  /// with equal combinations share one CompiledCombo; combo_slot_ maps
  /// each cluster to a dense kernel slot and slot_kernel_ back to the
  /// kernel, which keys stage-3 row grouping.
  std::vector<std::shared_ptr<const CompiledCombo>> compiled_;
  std::vector<uint32_t> combo_slot_;
  std::vector<const CompiledCombo*> slot_kernel_;
  bool use_compiled_ = true;
  double assess_lambda_ = 0.5;
  FairnessMetric assess_metric_ = FairnessMetric::kDemographicParity;
  AssessmentMode assess_mode_ = AssessmentMode::kGroupFairness;
  /// Manifest of this model's v2 serialization (cached by a v2 load,
  /// EnsureManifest, or an ApplyDeltaBytes/CloneWithRefreshes update).
  std::optional<io::SnapshotManifest> manifest_;
};

}  // namespace falcc

#endif  // FALCC_CORE_FALCC_H_
