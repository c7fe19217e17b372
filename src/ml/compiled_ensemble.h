// Compiled flat-node inference kernels for tree ensembles.
//
// The interpreted prediction path walks each model's TreeNode array with
// a data-dependent branch per node and one virtual PredictProbaBatch
// dispatch per model. This layer lowers every CART / AdaBoost /
// RandomForest into a structure-of-arrays node table (feature indices,
// thresholds, child offsets, and leaf probabilities in separate
// contiguous arrays) and walks it branch-free, level-by-level — the
// VPred / QuickScorer family of layouts. Leaves are encoded as
// self-loops (both children point at the node itself), so a fixed
// `depth` steps from the root lands every walk on its leaf and the inner
// loop needs no termination test.
//
// The kernel's lanes are (row, tree) pairs: a block of n <= 32 rows walks
// 32 / n trees side by side, each tree group for its largest depth, so a
// 1-row serving segment keeps 32 independent walks in flight instead of
// one serial chain of dependent cache-missing loads. Leaves are then
// folded into the per-row accumulators in tree order, which is what keeps
// the output bit-identical.
//
// Two compiled artifacts exist:
//  * CompiledEnsemble — one classifier, lowered standalone. Used by the
//    inference microbenchmark and by model-level tests.
//  * CompiledCombo — one FALCC model combination (paper §3.6: one pool
//    model per sensitive group), with every group's ensemble stitched
//    into a single shared node table behind a group-indexed entry point.
//    This is what the online phase serves from: the per-(cluster, group)
//    row segment does one table walk instead of group routing plus
//    per-model virtual dispatch.
//
// Bit-identity contract: for every lowered model the compiled kernel
// reproduces the interpreted PredictProbaBatch output exactly — same
// traversal comparisons (`v <= threshold` goes left), same accumulation
// order (AdaBoost margins in boosting-round order, alpha_sum as the sum
// of |alpha_t| in the same order), same final arithmetic. Models that
// are not tree ensembles (logistic regression, naive Bayes, kNN) do not
// lower; a CompiledCombo records them as fallback entries and the caller
// keeps using the interpreted path for those groups.

#ifndef FALCC_ML_COMPILED_ENSEMBLE_H_
#define FALCC_ML_COMPILED_ENSEMBLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/model_pool.h"
#include "ml/decision_tree.h"

namespace falcc {

/// How a lowered ensemble combines its trees' leaf probabilities.
enum class EnsembleKind {
  kTree,      ///< single tree: probability = leaf proba
  kAdaBoost,  ///< 0.5 * (Σ alpha_t sign(leaf_t) / Σ |alpha_t| + 1)
  kForest,    ///< mean of hard votes (leaf proba >= 0.5)
};

/// Structure-of-arrays node table shared by every tree of one compiled
/// artifact. Node i of a tree occupies global slot base + i; children are
/// global slots. Internal node: feature >= 0 index into the sample,
/// children[2i] = left (taken when value <= threshold), children[2i + 1]
/// = right. Leaf: feature = 0 (a harmless in-bounds column), threshold =
/// 0, both children = the node itself, and leaf_proba holds P(y = 1).
struct FlatTable {
  std::vector<int32_t> feature;
  std::vector<double> threshold;
  std::vector<uint32_t> children;  // 2 entries per node
  std::vector<double> leaf_proba;

  size_t num_nodes() const { return feature.size(); }
};

/// One lowered tree: its root slot in the shared table and the number of
/// traversal steps (= tree depth, recomputed from the node structure —
/// never trusted from a serialized depth field) that reach every leaf.
struct TreeRef {
  uint32_t root = 0;
  uint32_t steps = 0;
};

/// Receives one classifier's trees during lowering. Classifiers
/// implement Classifier::LowerToFlat against this interface; the
/// compiler (CompiledEnsemble / CompiledCombo) owns the storage and
/// checks `status()` once lowering finishes. Appending is append-only
/// into the shared table, so multiple models stitch naturally.
class FlatEnsembleBuilder {
 public:
  FlatEnsembleBuilder(FlatTable* table, std::vector<TreeRef>* trees,
                      std::vector<double>* alphas)
      : table_(table), trees_(trees), alphas_(alphas) {}

  /// Declares the combination rule. Must be called exactly once per
  /// lowered model, before any AddTree.
  void SetKind(EnsembleKind kind);

  /// Appends one fitted tree. `alpha` is its AdaBoost weight (ignored by
  /// the other kinds). Nodes must form a valid flat tree: every internal
  /// node's children strictly after it and in range — the same shape
  /// DecisionTree::DeserializePayload enforces. Violations (or an empty
  /// tree) poison the builder; the compiler reports them via status().
  void AddTree(std::span<const TreeNode> nodes, double alpha = 1.0);

  bool has_kind() const { return has_kind_; }
  EnsembleKind kind() const { return kind_; }
  const Status& status() const { return status_; }
  size_t num_trees_added() const { return num_trees_added_; }

 private:
  FlatTable* table_;
  std::vector<TreeRef>* trees_;
  std::vector<double>* alphas_;
  EnsembleKind kind_ = EnsembleKind::kTree;
  bool has_kind_ = false;
  Status status_;
  size_t num_trees_added_ = 0;
  std::vector<uint32_t> depth_scratch_;
};

/// One classifier lowered standalone. Compile fails with
/// FailedPrecondition for classifier types that do not lower.
class CompiledEnsemble {
 public:
  static Result<CompiledEnsemble> Compile(const Classifier& model);

  /// Exactly Classifier::PredictProbaBatch of the source model, bit for
  /// bit: P(y = 1) for `rows` of `data`, written to `out` (same length).
  void PredictProbaBatch(const Dataset& data, std::span<const size_t> rows,
                         std::span<double> out) const;

  EnsembleKind kind() const { return kind_; }
  size_t num_trees() const { return trees_.size(); }
  size_t num_nodes() const { return table_.num_nodes(); }

 private:
  CompiledEnsemble() = default;

  FlatTable table_;
  std::vector<TreeRef> trees_;
  std::vector<double> alphas_;
  EnsembleKind kind_ = EnsembleKind::kTree;
  double alpha_sum_ = 0.0;
};

/// One model combination fused into a single node table with a
/// group-indexed entry point. Immutable once compiled; FalccModel shares
/// instances across clusters that selected the same combination (and
/// across refresh clones), which is why Compile returns a shared_ptr.
///
/// The kernels read every array through spans. A combo built by Compile
/// owns its storage (the spans point at it); one built by FromParts over
/// a memory-mapped snapshot aliases the mapping directly — zero copy —
/// and keeps it alive through `backing`. Both serve bit-identically.
class CompiledCombo {
 public:
  /// Per-group dispatch record: the tree slice of the shared table plus
  /// the precomputed AdaBoost normalizer. Public because the snapshot
  /// layer serializes entries verbatim into the flat section.
  struct GroupEntry {
    EnsembleKind kind = EnsembleKind::kTree;
    uint32_t tree_begin = 0;
    uint32_t tree_end = 0;
    double alpha_sum = 0.0;
    uint32_t model = 0;  ///< pool index (also the fallback route)
    bool compiled = false;
  };

  /// The six arrays one fused kernel walks, as views.
  struct FlatParts {
    std::span<const int32_t> feature;
    std::span<const double> threshold;
    std::span<const uint32_t> children;
    std::span<const double> leaf_proba;
    std::span<const TreeRef> trees;
    std::span<const double> alphas;
  };

  /// Lowers `combo` (one pool model index per sensitive group) against
  /// `pool`. Groups whose model does not lower become fallback entries
  /// (GroupCompiled(g) == false); groups sharing a pool model share one
  /// lowered entry. Fails only on structurally invalid trees, which
  /// deserialization and training both rule out.
  static Result<std::shared_ptr<const CompiledCombo>> Compile(
      const ModelPool& pool, const ModelCombination& combo);

  /// Builds a combo whose kernels alias `parts` (kept alive by
  /// `backing`) after full structural validation: child links in range
  /// and strictly forward (leaves self-loop), features inside
  /// [0, num_features), finite thresholds/alphas, leaf probabilities in
  /// [0, 1], walk lengths bounded by the node count, entry tree slices
  /// in range with bit-exact recomputed alpha normalizers. An accepted
  /// table therefore cannot read out of bounds, loop, or produce an
  /// out-of-range probability — the mmap path's safety contract.
  static Result<std::shared_ptr<const CompiledCombo>> FromParts(
      const FlatParts& parts, std::vector<GroupEntry> groups,
      size_t num_features, size_t pool_size,
      std::shared_ptr<const void> backing);

  CompiledCombo(const CompiledCombo&) = delete;
  CompiledCombo& operator=(const CompiledCombo&) = delete;

  size_t num_groups() const { return groups_.size(); }
  /// Whether group g's model was lowered (false = caller must use the
  /// interpreted path via GroupModel).
  bool GroupCompiled(size_t g) const { return groups_[g].compiled; }
  /// Pool index of the model serving group g.
  size_t GroupModel(size_t g) const { return groups_[g].model; }

  /// Fused kernel for group g's row segment; requires GroupCompiled(g).
  /// Bit-identical to pool.model(GroupModel(g)).PredictProbaBatch.
  void PredictGroup(const Dataset& data, size_t g,
                    std::span<const size_t> rows, std::span<double> out) const;

  /// Bit-for-bit equality of the compiled artifact (tables, tree refs,
  /// alphas, entries) — what "a refresh recompile matches a from-scratch
  /// compile" means in tests.
  bool SameBits(const CompiledCombo& other) const;

  size_t num_nodes() const { return parts_.feature.size(); }
  size_t num_trees() const { return parts_.trees.size(); }
  size_t num_compiled_groups() const;

  /// The entry table (serialized verbatim by the snapshot layer).
  std::span<const GroupEntry> groups() const { return groups_; }
  /// The kernel arrays as views (aliasing owned storage or a mapping).
  const FlatParts& parts() const { return parts_; }

 private:
  CompiledCombo() = default;

  /// Points the span views at the owned storage. Called once the object
  /// sits at its final address (Compile heap-allocates, so members never
  /// move afterwards).
  void BindOwned();

  // Owned storage (empty when the combo aliases a mapping via backing_).
  FlatTable table_;
  std::vector<TreeRef> trees_;
  std::vector<double> alphas_;

  FlatParts parts_;
  std::vector<GroupEntry> groups_;
  std::shared_ptr<const void> backing_;
};

}  // namespace falcc

#endif  // FALCC_ML_COMPILED_ENSEMBLE_H_
