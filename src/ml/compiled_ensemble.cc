#include "ml/compiled_ensemble.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace falcc {

namespace {

// Kernel lanes per traversal block, and the most rows one block takes. A
// lane is one (row, tree) cursor: a block of n rows walks kRowBlock / n
// trees side by side, so up to kRowBlock independent walks hide the
// dependent-load latency of `children[2i + b]` however few rows a segment
// has, while the lane row pointers, node cursors, and accumulators stay
// in registers / L1.
constexpr size_t kRowBlock = 32;

using FlatParts = CompiledCombo::FlatParts;

bool SameDoubleBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

template <typename T>
bool SameSpanBits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

// The shared fused kernel: walks every tree of one entry over `rows` in
// blocks of up to kRowBlock rows and combines leaves per `kind`.
//
// A block of n rows runs kRowBlock / n trees at once, one lane per
// (row, tree) pair, so a 1-row serving segment keeps as many cursors in
// flight as a full block instead of walking its trees as one serial chain
// of dependent loads. Each step is one gather plus a branchless child
// select — `v > threshold` indexes the children pair, which decides
// exactly like the interpreted `v <= threshold ? left : right`. A tree
// group is walked for its largest `steps`: leaves self-loop, so a landed
// lane spins in place; children sit strictly after their parent, so
// `next != i` iff some lane is still descending, and the level loop stops
// as soon as the whole group has landed. Neither can change where any
// cursor ends.
//
// Leaves are then folded into the accumulators in tree (boosting-round)
// order, mirroring the interpreted batch paths operation for operation
// (margins against a precomputed alpha_sum; forest votes divided by the
// tree count), so the output is bit-identical to PredictProbaBatch.
void PredictFlat(const FlatParts& parts, std::span<const TreeRef> trees,
                 std::span<const double> alphas, EnsembleKind kind,
                 double alpha_sum, const Dataset& data,
                 std::span<const size_t> rows, std::span<double> out) {
  const int32_t* feature = parts.feature.data();
  const double* threshold = parts.threshold.data();
  const uint32_t* children = parts.children.data();
  const double* leaf = parts.leaf_proba.data();
  const double num_trees = static_cast<double>(trees.size());
  for (size_t begin = 0; begin < rows.size(); begin += kRowBlock) {
    const size_t n = std::min(kRowBlock, rows.size() - begin);
    const size_t width = kRowBlock / n;  // trees per lane group
    // Lane j * n + r walks row r through the group's j-th tree.
    const double* row[kRowBlock];
    uint32_t node[kRowBlock];
    double acc[kRowBlock];
    for (size_t r = 0; r < n; ++r) {
      row[r] = data.Row(rows[begin + r]).data();
      acc[r] = 0.0;
    }
    for (size_t lane = n; lane < width * n; ++lane) row[lane] = row[lane - n];

    for (size_t first = 0; first < trees.size(); first += width) {
      const size_t group = std::min(width, trees.size() - first);
      const size_t lanes = group * n;
      uint32_t steps = 0;
      for (size_t j = 0; j < group; ++j) {
        const TreeRef& tree = trees[first + j];
        steps = std::max(steps, tree.steps);
        for (size_t r = 0; r < n; ++r) node[j * n + r] = tree.root;
      }
      for (uint32_t step = 0; step < steps; ++step) {
        uint32_t moved = 0;
        for (size_t lane = 0; lane < lanes; ++lane) {
          const uint32_t i = node[lane];
          const double v = row[lane][feature[i]];
          const uint32_t next =
              children[2 * i + static_cast<uint32_t>(v > threshold[i])];
          moved |= next ^ i;
          node[lane] = next;
        }
        if (moved == 0) break;
      }

      for (size_t j = 0; j < group; ++j) {
        const uint32_t* landed = node + j * n;
        switch (kind) {
          case EnsembleKind::kTree:
            for (size_t r = 0; r < n; ++r) acc[r] = leaf[landed[r]];
            break;
          case EnsembleKind::kAdaBoost: {
            const double alpha = alphas[first + j];
            for (size_t r = 0; r < n; ++r) {
              acc[r] += alpha * (leaf[landed[r]] >= 0.5 ? 1.0 : -1.0);
            }
            break;
          }
          case EnsembleKind::kForest:
            for (size_t r = 0; r < n; ++r) {
              if (leaf[landed[r]] >= 0.5) acc[r] += 1.0;
            }
            break;
        }
      }
    }
    switch (kind) {
      case EnsembleKind::kTree:
        for (size_t r = 0; r < n; ++r) out[begin + r] = acc[r];
        break;
      case EnsembleKind::kAdaBoost:
        if (alpha_sum <= 0.0) {
          for (size_t r = 0; r < n; ++r) out[begin + r] = 0.5;
        } else {
          for (size_t r = 0; r < n; ++r) {
            out[begin + r] = 0.5 * (acc[r] / alpha_sum + 1.0);
          }
        }
        break;
      case EnsembleKind::kForest:
        for (size_t r = 0; r < n; ++r) out[begin + r] = acc[r] / num_trees;
        break;
    }
  }
}

// |alpha| sum over one entry's trees, in round order — the same
// floating-point sequence the interpreted AdaBoost batch accumulates, so
// precomputing it at compile time cannot change a probability bit.
double AlphaSum(std::span<const double> alphas) {
  double sum = 0.0;
  for (double alpha : alphas) sum += std::fabs(alpha);
  return sum;
}

}  // namespace

void FlatEnsembleBuilder::SetKind(EnsembleKind kind) {
  if (!status_.ok()) return;
  if (has_kind_) {
    status_ = Status::Internal("FlatEnsembleBuilder: SetKind called twice");
    return;
  }
  kind_ = kind;
  has_kind_ = true;
}

void FlatEnsembleBuilder::AddTree(std::span<const TreeNode> nodes,
                                  double alpha) {
  if (!status_.ok()) return;
  if (!has_kind_) {
    status_ = Status::Internal("FlatEnsembleBuilder: AddTree before SetKind");
    return;
  }
  if (nodes.empty()) {
    status_ = Status::Internal("FlatEnsembleBuilder: empty tree");
    return;
  }
  const size_t base = table_->num_nodes();
  if (base + nodes.size() > (1u << 30)) {
    status_ = Status::Internal("FlatEnsembleBuilder: node table overflow");
    return;
  }

  // Recompute the walk length from the node structure — a serialized
  // depth field is never trusted. Children sit strictly after their
  // parent (the shape deserialization enforces), so one forward pass
  // sees every parent before its children; taking the max over incoming
  // edges makes the walk long enough for every root-to-leaf path even if
  // a corrupt-but-accepted artifact shares subtrees.
  depth_scratch_.assign(nodes.size(), 0);
  uint32_t steps = 0;
  const int n = static_cast<int>(nodes.size());
  for (int i = 0; i < n; ++i) {
    const TreeNode& node = nodes[static_cast<size_t>(i)];
    if (node.feature >= 0) {
      if (node.left <= i || node.left >= n || node.right <= i ||
          node.right >= n) {
        status_ = Status::Internal(
            "FlatEnsembleBuilder: tree children not strictly forward");
        return;
      }
      const uint32_t child_depth = depth_scratch_[static_cast<size_t>(i)] + 1;
      auto& left = depth_scratch_[static_cast<size_t>(node.left)];
      auto& right = depth_scratch_[static_cast<size_t>(node.right)];
      left = std::max(left, child_depth);
      right = std::max(right, child_depth);
    } else {
      steps = std::max(steps, depth_scratch_[static_cast<size_t>(i)]);
    }
  }

  table_->feature.reserve(base + nodes.size());
  table_->threshold.reserve(base + nodes.size());
  table_->children.reserve(2 * (base + nodes.size()));
  table_->leaf_proba.reserve(base + nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const TreeNode& node = nodes[i];
    const uint32_t self = static_cast<uint32_t>(base + i);
    if (node.feature >= 0) {
      table_->feature.push_back(node.feature);
      table_->threshold.push_back(node.threshold);
      table_->children.push_back(static_cast<uint32_t>(base) +
                                 static_cast<uint32_t>(node.left));
      table_->children.push_back(static_cast<uint32_t>(base) +
                                 static_cast<uint32_t>(node.right));
      table_->leaf_proba.push_back(0.0);
    } else {
      // Leaf: feature 0 keeps the gather in bounds, the self-loop makes
      // the fixed-length walk idempotent once the leaf is reached.
      table_->feature.push_back(0);
      table_->threshold.push_back(0.0);
      table_->children.push_back(self);
      table_->children.push_back(self);
      table_->leaf_proba.push_back(node.proba);
    }
  }
  trees_->push_back(TreeRef{static_cast<uint32_t>(base), steps});
  alphas_->push_back(alpha);
  ++num_trees_added_;
}

Result<CompiledEnsemble> CompiledEnsemble::Compile(const Classifier& model) {
  CompiledEnsemble compiled;
  FlatEnsembleBuilder builder(&compiled.table_, &compiled.trees_,
                              &compiled.alphas_);
  if (!model.LowerToFlat(&builder)) {
    return Status::FailedPrecondition("CompiledEnsemble: " + model.Name() +
                                      " does not lower to a flat ensemble");
  }
  FALCC_RETURN_IF_ERROR(builder.status());
  if (!builder.has_kind() || compiled.trees_.empty()) {
    return Status::Internal("CompiledEnsemble: lowering produced no trees");
  }
  compiled.kind_ = builder.kind();
  compiled.alpha_sum_ = AlphaSum(compiled.alphas_);
  return compiled;
}

void CompiledEnsemble::PredictProbaBatch(const Dataset& data,
                                         std::span<const size_t> rows,
                                         std::span<double> out) const {
  FALCC_CHECK(rows.size() == out.size(),
              "CompiledEnsemble: rows/out size mismatch");
  FlatParts parts;
  parts.feature = table_.feature;
  parts.threshold = table_.threshold;
  parts.children = table_.children;
  parts.leaf_proba = table_.leaf_proba;
  parts.trees = trees_;
  parts.alphas = alphas_;
  PredictFlat(parts, trees_, alphas_, kind_, alpha_sum_, data, rows, out);
}

void CompiledCombo::BindOwned() {
  parts_.feature = table_.feature;
  parts_.threshold = table_.threshold;
  parts_.children = table_.children;
  parts_.leaf_proba = table_.leaf_proba;
  parts_.trees = trees_;
  parts_.alphas = alphas_;
}

Result<std::shared_ptr<const CompiledCombo>> CompiledCombo::Compile(
    const ModelPool& pool, const ModelCombination& combo) {
  std::shared_ptr<CompiledCombo> compiled(new CompiledCombo());
  compiled->groups_.resize(combo.size());
  // Groups served by the same pool model share one lowered entry — the
  // common case when a cluster's best combination repeats a model.
  std::vector<int> entry_of_model(pool.size(), -1);
  for (size_t g = 0; g < combo.size(); ++g) {
    const size_t m = combo[g];
    if (m >= pool.size()) {
      return Status::InvalidArgument("CompiledCombo: model index " +
                                     std::to_string(m) + " out of range");
    }
    GroupEntry& entry = compiled->groups_[g];
    entry.model = static_cast<uint32_t>(m);
    if (entry_of_model[m] >= 0) {
      entry = compiled->groups_[static_cast<size_t>(entry_of_model[m])];
      continue;
    }
    const uint32_t tree_begin = static_cast<uint32_t>(compiled->trees_.size());
    FlatEnsembleBuilder builder(&compiled->table_, &compiled->trees_,
                                &compiled->alphas_);
    if (!pool.model(m).LowerToFlat(&builder)) {
      // Not a tree ensemble: the group keeps the interpreted path.
      entry_of_model[m] = static_cast<int>(g);
      continue;
    }
    FALCC_RETURN_IF_ERROR(builder.status());
    if (builder.num_trees_added() == 0) {
      return Status::Internal("CompiledCombo: model lowered zero trees");
    }
    entry.kind = builder.kind();
    entry.tree_begin = tree_begin;
    entry.tree_end = static_cast<uint32_t>(compiled->trees_.size());
    entry.alpha_sum = AlphaSum(std::span<const double>(compiled->alphas_)
                                   .subspan(tree_begin));
    entry.compiled = true;
    entry_of_model[m] = static_cast<int>(g);
  }
  compiled->BindOwned();
  return std::shared_ptr<const CompiledCombo>(std::move(compiled));
}

Result<std::shared_ptr<const CompiledCombo>> CompiledCombo::FromParts(
    const FlatParts& parts, std::vector<GroupEntry> groups,
    size_t num_features, size_t pool_size,
    std::shared_ptr<const void> backing) {
  auto invalid = [](const std::string& what) {
    return Status::InvalidArgument("CompiledCombo: flat " + what);
  };
  const size_t n = parts.feature.size();
  if (parts.threshold.size() != n || parts.leaf_proba.size() != n ||
      parts.children.size() != 2 * n) {
    return invalid("node array sizes disagree");
  }
  if (n > (1u << 30)) return invalid("node table overflow");
  if (parts.alphas.size() != parts.trees.size()) {
    return invalid("tree/alpha count mismatch");
  }
  const uint32_t node_count = static_cast<uint32_t>(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t self = static_cast<uint32_t>(i);
    const uint32_t left = parts.children[2 * i];
    const uint32_t right = parts.children[2 * i + 1];
    if (left == self && right == self) {
      // Leaf: the canonical encoding is fully pinned so a flat section is
      // a pure function of the model (and corruption cannot hide in
      // ignored fields).
      if (parts.feature[i] != 0) return invalid("leaf with nonzero feature");
      if (!SameDoubleBits(parts.threshold[i], 0.0)) {
        return invalid("leaf with nonzero threshold");
      }
      const double p = parts.leaf_proba[i];
      if (!std::isfinite(p) || p < 0.0 || p > 1.0) {
        return invalid("leaf probability outside [0, 1]");
      }
    } else {
      if (left <= self || left >= node_count || right <= self ||
          right >= node_count) {
        return invalid("children not strictly forward");
      }
      if (parts.feature[i] < 0 ||
          static_cast<size_t>(parts.feature[i]) >= num_features) {
        return invalid("feature index out of range");
      }
      if (!std::isfinite(parts.threshold[i])) {
        return invalid("non-finite threshold");
      }
      if (!SameDoubleBits(parts.leaf_proba[i], 0.0)) {
        return invalid("interior node with nonzero leaf probability");
      }
    }
  }
  for (const TreeRef& tree : parts.trees) {
    if (tree.root >= node_count) return invalid("tree root out of range");
    if (tree.steps > node_count) return invalid("tree walk length too long");
  }
  for (double alpha : parts.alphas) {
    if (!std::isfinite(alpha)) return invalid("non-finite alpha");
  }
  for (const GroupEntry& entry : groups) {
    switch (entry.kind) {
      case EnsembleKind::kTree:
      case EnsembleKind::kAdaBoost:
      case EnsembleKind::kForest:
        break;
      default:
        return invalid("unknown ensemble kind");
    }
    if (entry.model >= pool_size) return invalid("entry model out of range");
    if (entry.compiled) {
      if (entry.tree_begin >= entry.tree_end ||
          entry.tree_end > parts.trees.size()) {
        return invalid("entry tree slice out of range");
      }
      const double recomputed = AlphaSum(parts.alphas.subspan(
          entry.tree_begin, entry.tree_end - entry.tree_begin));
      if (!SameDoubleBits(entry.alpha_sum, recomputed)) {
        return invalid("entry alpha normalizer does not match its trees");
      }
    } else if (entry.tree_begin != 0 || entry.tree_end != 0 ||
               !SameDoubleBits(entry.alpha_sum, 0.0)) {
      return invalid("fallback entry with kernel state");
    }
  }
  std::shared_ptr<CompiledCombo> compiled(new CompiledCombo());
  compiled->parts_ = parts;
  compiled->groups_ = std::move(groups);
  compiled->backing_ = std::move(backing);
  return std::shared_ptr<const CompiledCombo>(std::move(compiled));
}

void CompiledCombo::PredictGroup(const Dataset& data, size_t g,
                                 std::span<const size_t> rows,
                                 std::span<double> out) const {
  FALCC_CHECK(g < groups_.size(), "CompiledCombo: group out of range");
  FALCC_CHECK(rows.size() == out.size(),
              "CompiledCombo: rows/out size mismatch");
  const GroupEntry& entry = groups_[g];
  FALCC_CHECK(entry.compiled, "CompiledCombo: PredictGroup on fallback group");
  const size_t count = entry.tree_end - entry.tree_begin;
  PredictFlat(parts_, parts_.trees.subspan(entry.tree_begin, count),
              parts_.alphas.subspan(entry.tree_begin, count), entry.kind,
              entry.alpha_sum, data, rows, out);
}

bool CompiledCombo::SameBits(const CompiledCombo& other) const {
  if (groups_.size() != other.groups_.size()) return false;
  for (size_t g = 0; g < groups_.size(); ++g) {
    const GroupEntry& a = groups_[g];
    const GroupEntry& b = other.groups_[g];
    if (a.kind != b.kind || a.tree_begin != b.tree_begin ||
        a.tree_end != b.tree_end || a.model != b.model ||
        a.compiled != b.compiled || !SameDoubleBits(a.alpha_sum, b.alpha_sum)) {
      return false;
    }
  }
  return SameSpanBits(parts_.trees, other.parts_.trees) &&
         SameSpanBits(parts_.alphas, other.parts_.alphas) &&
         SameSpanBits(parts_.feature, other.parts_.feature) &&
         SameSpanBits(parts_.threshold, other.parts_.threshold) &&
         SameSpanBits(parts_.children, other.parts_.children) &&
         SameSpanBits(parts_.leaf_proba, other.parts_.leaf_proba);
}

size_t CompiledCombo::num_compiled_groups() const {
  size_t count = 0;
  for (const GroupEntry& entry : groups_) {
    if (entry.compiled) ++count;
  }
  return count;
}

}  // namespace falcc
