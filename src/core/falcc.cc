#include "core/falcc.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <memory>
#include <numeric>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "cluster/kdtree.h"
#include "io/flat_kernel.h"
#include "io/mapped_file.h"
#include "ml/adaboost.h"
#include "util/math.h"
#include "util/parallel.h"
#include "util/serialize.h"
#include "util/timer.h"

namespace falcc {

Result<FalccModel> FalccModel::Train(const Dataset& train,
                                     const Dataset& validation,
                                     const FalccOptions& options,
                                     OfflineStageTimes* stage_times) {
  Timer train_timer;
  DiverseTrainerOptions trainer = options.trainer;
  trainer.seed = options.seed;
  Result<DiversePool> diverse = TrainDiversePool(train, validation, trainer);
  if (!diverse.ok()) return diverse.status();

  ModelPool pool;
  for (auto& model : diverse.value().models) {
    pool.Add(std::move(model));
  }

  if (trainer.split_by_group) {
    // Split training (paper §3.1): one additional ensemble per sensitive
    // group, trained on that group's partition and applicable to it
    // only. Applicability is expressed in validation group ids since the
    // assessment and the online phase operate on those.
    Result<GroupIndex> train_index = GroupIndex::Build(train);
    if (!train_index.ok()) return train_index.status();
    Result<std::vector<std::vector<size_t>>> buckets =
        RowsByGroup(train_index.value(), train);
    if (!buckets.ok()) return buckets.status();
    Result<GroupIndex> val_index = GroupIndex::Build(validation);
    if (!val_index.ok()) return val_index.status();

    for (size_t g = 0; g < buckets.value().size(); ++g) {
      const std::vector<size_t>& rows = buckets.value()[g];
      if (rows.size() < trainer.min_group_rows) continue;
      const Dataset partition = train.Subset(rows);
      AdaBoostOptions boost;
      boost.num_estimators = 20;
      boost.base.max_depth = 4;
      boost.base.seed = options.seed + 300 + g;
      auto model = std::make_unique<AdaBoost>(boost);
      FALCC_RETURN_IF_ERROR(model->Fit(partition));
      const size_t val_g =
          val_index.value().GroupOfOrNearest(partition.Row(0));
      pool.Add(std::move(model), {val_g});
    }
  }

  if (stage_times != nullptr) {
    stage_times->train_seconds = train_timer.ElapsedSeconds();
  }
  return RunOfflinePhase(std::move(pool), validation, options,
                         diverse.value().entropy, stage_times);
}

Result<FalccModel> FalccModel::TrainWithPool(ModelPool pool,
                                             const Dataset& validation,
                                             const FalccOptions& options,
                                             double pool_entropy) {
  return RunOfflinePhase(std::move(pool), validation, options, pool_entropy);
}

Result<FalccModel> FalccModel::RunOfflinePhase(ModelPool pool,
                                               const Dataset& validation,
                                               const FalccOptions& options,
                                               double pool_entropy,
                                               OfflineStageTimes* stage_times) {
  Timer cluster_timer;
  if (validation.num_rows() < 2) {
    return Status::InvalidArgument("FALCC: validation data too small");
  }
  if (options.lambda < 0.0 || options.lambda > 1.0) {
    return Status::InvalidArgument("FALCC: lambda must be in [0,1]");
  }
  if (pool.size() == 0) {
    return Status::InvalidArgument("FALCC: empty model pool");
  }

  FalccModel model;
  model.pool_ = std::make_shared<const ModelPool>(std::move(pool));
  model.pool_entropy_ = pool_entropy;

  // Sensitive groups observed in the validation data.
  Result<GroupIndex> group_index = GroupIndex::Build(validation);
  if (!group_index.ok()) return group_index.status();
  model.group_index_ = std::move(group_index).value();
  const size_t num_groups = model.group_index_.num_groups();

  // Sample processing for the clustering space: standardization, proxy
  // mitigation, and projection of the sensitive attributes.
  ColumnTransform base = options.standardize
                             ? ColumnTransform::Standardize(validation)
                             : ColumnTransform::Identity(
                                   validation.num_features());
  Result<ColumnTransform> transform =
      BuildClusteringTransform(validation, options.proxy, std::move(base));
  if (!transform.ok()) return transform.status();
  model.clustering_transform_ = std::move(transform).value();

  const std::vector<std::vector<double>> points =
      model.clustering_transform_.ApplyAll(validation);

  // Clustering: fixed k, or automatic estimation with the configured
  // estimator (LOG-Means by default).
  size_t k = options.fixed_k;
  if (k == 0) {
    KEstimationOptions est = options.k_estimation;
    est.kmeans.seed = options.seed;
    est.k_max = std::min(est.k_max, validation.num_rows());
    switch (options.k_selection) {
      case FalccOptions::KSelection::kLogMeans: {
        Result<KEstimate> estimate = EstimateKLogMeans(points, est);
        if (!estimate.ok()) return estimate.status();
        k = estimate.value().k;
        break;
      }
      case FalccOptions::KSelection::kElbow: {
        Result<KEstimate> estimate = EstimateKElbow(points, est);
        if (!estimate.ok()) return estimate.status();
        k = estimate.value().k;
        break;
      }
      case FalccOptions::KSelection::kXMeans: {
        XMeansOptions xm;
        xm.k_min = est.k_min;
        xm.k_max = est.k_max;
        xm.kmeans = est.kmeans;
        Result<KMeansResult> estimate = RunXMeans(points, xm);
        if (!estimate.ok()) return estimate.status();
        k = estimate.value().centroids.size();
        break;
      }
    }
  }
  if (k > validation.num_rows()) {
    return Status::InvalidArgument("FALCC: k exceeds validation size");
  }
  KMeansOptions kmeans_options;
  kmeans_options.seed = options.seed;
  Result<KMeansResult> clustering = RunKMeans(points, k, kmeans_options);
  if (!clustering.ok()) return clustering.status();
  model.centroids_ = std::move(clustering.value().centroids);
  model.assignment_ = std::move(clustering.value().assignment);

  // Region row sets, gap-filled: every cluster must contain
  // representatives of every sensitive group (§3.5).
  Result<std::vector<size_t>> val_groups =
      model.group_index_.GroupsOf(validation);
  if (!val_groups.ok()) return val_groups.status();
  const std::vector<size_t>& groups = val_groups.value();

  std::vector<std::vector<size_t>> region_rows(k);
  for (size_t i = 0; i < validation.num_rows(); ++i) {
    region_rows[model.assignment_[i]].push_back(i);
  }

  // Per-group kd-trees are built lazily: most clusters cover all groups.
  std::vector<std::vector<bool>> group_masks(num_groups);
  Result<KdTree> tree = KdTree::Build(points);
  if (!tree.ok()) return tree.status();
  auto group_mask = [&](size_t g) -> const std::vector<bool>& {
    if (group_masks[g].empty()) {
      group_masks[g].assign(validation.num_rows(), false);
      for (size_t i = 0; i < validation.num_rows(); ++i) {
        group_masks[g][i] = groups[i] == g;
      }
    }
    return group_masks[g];
  };

  for (size_t c = 0; c < k; ++c) {
    if (region_rows[c].empty()) continue;  // empty cluster: nothing to fill
    std::vector<bool> present(num_groups, false);
    for (size_t row : region_rows[c]) present[groups[row]] = true;
    for (size_t g = 0; g < num_groups; ++g) {
      if (present[g]) continue;
      // Pull the gap_fill_k nearest validation samples of group g to the
      // cluster centroid into this cluster's assessment rows.
      const std::vector<size_t> nn = tree.value().NearestWhere(
          model.centroids_[c], options.gap_fill_k, group_mask(g));
      region_rows[c].insert(region_rows[c].end(), nn.begin(), nn.end());
    }
  }
  if (stage_times != nullptr) {
    stage_times->cluster_seconds = cluster_timer.ElapsedSeconds();
  }
  Timer assess_timer;

  // Drop empty regions from assessment but keep centroid indexing intact
  // by assigning them the globally best combination later.
  const std::vector<std::vector<int>> votes =
      model.pool_->PredictMatrix(validation);

  AssessmentContext ctx;
  ctx.votes = &votes;
  ctx.labels = validation.labels();
  ctx.groups = groups;
  ctx.num_groups = num_groups;
  ctx.mode = options.assessment_mode;
  ctx.metric = options.metric;
  ctx.lambda = options.lambda;

  Result<std::vector<ModelCombination>> combos =
      EnumerateCombinations(*model.pool_, num_groups);
  if (!combos.ok()) return combos.status();

  std::vector<size_t> all_rows(validation.num_rows());
  std::iota(all_rows.begin(), all_rows.end(), 0);
  Result<RegionBest> global_best =
      ReassessRegion(ctx, combos.value(), all_rows);
  if (!global_best.ok()) return global_best.status();

  // Per-cluster combination assessment: clusters are independent, each
  // task writes only its own selected_ / baseline slot. The winning L̂ is
  // kept per cluster — it anchors online drift detection.
  model.selected_.resize(k);
  model.baseline_loss_.assign(k, 0.0);
  model.assess_lambda_ = options.lambda;
  model.assess_metric_ = options.metric;
  model.assess_mode_ = options.assessment_mode;
  std::vector<Status> cluster_status(k);
  ParallelFor(0, k, 1, [&](size_t /*chunk*/, size_t lo, size_t hi) {
    for (size_t c = lo; c < hi; ++c) {
      if (region_rows[c].empty()) {
        model.selected_[c] = combos.value()[global_best.value().index];
        model.baseline_loss_[c] = global_best.value().loss;
        continue;
      }
      Result<RegionBest> best =
          ReassessRegion(ctx, combos.value(), region_rows[c]);
      if (!best.ok()) {
        cluster_status[c] = best.status();
        continue;
      }
      model.selected_[c] = combos.value()[best.value().index];
      model.baseline_loss_[c] = best.value().loss;
    }
  });
  for (const Status& status : cluster_status) {
    FALCC_RETURN_IF_ERROR(status);
  }
  FALCC_RETURN_IF_ERROR(model.BuildCentroidIndex());
  FALCC_RETURN_IF_ERROR(model.CompileKernels());
  if (stage_times != nullptr) {
    stage_times->assess_seconds = assess_timer.ElapsedSeconds();
  }
  return model;
}

Status FalccModel::CompileKernels() {
  const size_t k = centroids_.size();
  compiled_.assign(k, nullptr);
  // Clusters frequently select the same combination (the global best in
  // particular); they share one fused kernel.
  std::map<ModelCombination, std::shared_ptr<const CompiledCombo>> dedup;
  for (size_t c = 0; c < k; ++c) {
    auto [it, inserted] = dedup.try_emplace(selected_[c]);
    if (inserted) {
      Result<std::shared_ptr<const CompiledCombo>> combo =
          CompiledCombo::Compile(*pool_, selected_[c]);
      if (!combo.ok()) return combo.status();
      it->second = std::move(combo).value();
    }
    compiled_[c] = it->second;
  }
  RebuildComboSlots();
  return Status::OK();
}

void FalccModel::RebuildComboSlots() {
  combo_slot_.assign(compiled_.size(), 0);
  slot_kernel_.clear();
  std::map<const CompiledCombo*, uint32_t> slots;
  for (size_t c = 0; c < compiled_.size(); ++c) {
    const CompiledCombo* kernel = compiled_[c].get();
    auto [it, inserted] = slots.try_emplace(
        kernel, static_cast<uint32_t>(slot_kernel_.size()));
    if (inserted) slot_kernel_.push_back(kernel);
    combo_slot_[c] = it->second;
  }
}

Status FalccModel::BuildCentroidIndex() {
  Result<KdTree> index = KdTree::Build(centroids_);
  if (!index.ok()) return index.status();
  centroid_index_ = std::move(index).value();
  return Status::OK();
}

namespace {
constexpr char kModelHeader[] = "falcc-model-v1";
/// Optional trailing v1 section holding the monitoring anchors:
/// assessment parameters and the per-cluster baseline L̂. Artifacts
/// written before monitoring existed simply end after the combinations;
/// Load treats the section as absent and leaves the baselines empty.
constexpr char kMonitorSection[] = "falcc-monitor-v1";

// v2 section names, in canonical manifest order (the combo sections sit
// between clustering and monitor, one per cluster).
constexpr char kSectionMeta[] = "meta";
constexpr char kSectionPool[] = "pool";
constexpr char kSectionGroups[] = "groups";
constexpr char kSectionTransform[] = "transform";
constexpr char kSectionClustering[] = "clustering";
constexpr char kSectionMonitor[] = "monitor";
constexpr char kComboSectionPrefix[] = "combo.";

std::string ComboSectionName(size_t cluster) {
  return kComboSectionPrefix + std::to_string(cluster);
}

/// Every section parser ends with this: a v2 section is a closed unit,
/// so trailing tokens mean the artifact disagrees with its manifest.
Status ExpectSectionEnd(std::istream* in, const std::string& name) {
  std::string extra;
  if (*in >> extra) {
    return Status::InvalidArgument("FalccModel: trailing data in section '" +
                                   name + "'");
  }
  return Status::OK();
}

/// Strict "combo.<index>" parser for delta manifests: digits only, no
/// leading zeros, value below `num_clusters`.
Result<size_t> ParseComboSectionName(const std::string& name,
                                     size_t num_clusters) {
  const std::string_view prefix = kComboSectionPrefix;
  if (name.size() <= prefix.size() ||
      std::string_view(name).substr(0, prefix.size()) != prefix) {
    return Status::InvalidArgument(
        "FalccModel: delta may only carry combo sections, found '" + name +
        "'");
  }
  const std::string_view digits = std::string_view(name).substr(prefix.size());
  if (digits.size() > 1 && digits[0] == '0') {
    return Status::InvalidArgument("FalccModel: bad combo section name '" +
                                   name + "'");
  }
  size_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9' || value > num_clusters) {
      return Status::InvalidArgument("FalccModel: bad combo section name '" +
                                     name + "'");
    }
    value = value * 10 + static_cast<size_t>(c - '0');
  }
  if (value >= num_clusters) {
    return Status::InvalidArgument("FalccModel: delta cluster " +
                                   std::to_string(value) + " out of range");
  }
  return value;
}
}  // namespace

Status FalccModel::Save(std::ostream* out) const {
  return SaveV2(out, nullptr);
}

void FalccModel::WriteComboSection(std::ostream* out, size_t cluster) const {
  io::WriteVector(out, selected_[cluster]);
  // Self-describing baseline: a delta section replays without the base
  // artifact in hand, so it must say whether a baseline exists.
  if (baseline_loss_.empty()) {
    *out << "none\n";
  } else {
    *out << "baseline " << baseline_loss_[cluster] << '\n';
  }
}

void FalccModel::CanonicalSlots(std::vector<uint32_t>* slot_of_cluster,
                                std::vector<size_t>* slot_clusters) const {
  slot_of_cluster->assign(selected_.size(), 0);
  slot_clusters->clear();
  std::map<ModelCombination, uint32_t> slots;
  for (size_t c = 0; c < selected_.size(); ++c) {
    auto [it, inserted] = slots.try_emplace(
        selected_[c], static_cast<uint32_t>(slot_clusters->size()));
    if (inserted) slot_clusters->push_back(c);
    (*slot_of_cluster)[c] = it->second;
  }
}

Status FalccModel::SaveV2(std::ostream* out,
                          io::SnapshotManifest* manifest_out) const {
  io::SnapshotWriter writer(out);
  *writer.BeginSection(kSectionMeta) << "entropy " << pool_entropy_ << '\n';
  FALCC_RETURN_IF_ERROR(writer.EndSection());
  FALCC_RETURN_IF_ERROR(pool_->Serialize(writer.BeginSection(kSectionPool)));
  FALCC_RETURN_IF_ERROR(writer.EndSection());
  FALCC_RETURN_IF_ERROR(
      group_index_.Serialize(writer.BeginSection(kSectionGroups)));
  FALCC_RETURN_IF_ERROR(writer.EndSection());
  FALCC_RETURN_IF_ERROR(
      clustering_transform_.Serialize(writer.BeginSection(kSectionTransform)));
  FALCC_RETURN_IF_ERROR(writer.EndSection());
  {
    std::ostream* s = writer.BeginSection(kSectionClustering);
    *s << centroids_.size() << '\n';
    for (const auto& c : centroids_) io::WriteVector(s, c);
    FALCC_RETURN_IF_ERROR(writer.EndSection());
  }
  for (size_t c = 0; c < selected_.size(); ++c) {
    WriteComboSection(writer.BeginSection(ComboSectionName(c)), c);
    FALCC_RETURN_IF_ERROR(writer.EndSection());
  }
  if (!baseline_loss_.empty()) {
    *writer.BeginSection(kSectionMonitor)
        << assess_lambda_ << ' ' << static_cast<int>(assess_metric_) << ' '
        << static_cast<int>(assess_mode_) << '\n';
    FALCC_RETURN_IF_ERROR(writer.EndSection());
  }
  // The flat section is derived state: written when kernels exist,
  // rebuilt (or verified) by Load when absent (or present). Slots are
  // keyed by combination value, not kernel pointer, so the bytes are a
  // pure function of (pool, selected_) — clones and fresh compiles
  // serialize identically.
  if (has_compiled_kernels()) {
    std::vector<uint32_t> slot_of_cluster;
    std::vector<size_t> slot_clusters;
    CanonicalSlots(&slot_of_cluster, &slot_clusters);
    std::vector<const CompiledCombo*> slots;
    slots.reserve(slot_clusters.size());
    for (size_t first_cluster : slot_clusters) {
      slots.push_back(compiled_[first_cluster].get());
    }
    FALCC_RETURN_IF_ERROR(io::EncodeFlatSection(
        writer.BeginSection(io::kFlatSectionName), centroids_,
        slot_of_cluster, slots));
    FALCC_RETURN_IF_ERROR(writer.EndSection());
  }
  return writer.Finish(manifest_out);
}

Result<FalccModel> FalccModel::Load(std::istream* in) {
  // Slurp once, then sniff the format from the first bytes. Incremental
  // token reads would work for v1 but a v2 manifest needs the byte
  // layout, and a single read path keeps stream-fault handling uniform.
  std::string bytes;
  char chunk[65536];
  for (;;) {
    in->read(chunk, sizeof(chunk));
    bytes.append(chunk, static_cast<size_t>(in->gcount()));
    if (!*in) break;
  }
  if (in->bad()) return Status::IOError("FalccModel: stream read failed");
  const std::string_view view(bytes);
  const auto starts_with = [view](const char* header) {
    const std::string_view h(header);
    return view.size() > h.size() && view.substr(0, h.size()) == h &&
           view[h.size()] == '\n';
  };
  if (starts_with(io::kSnapshotHeaderV2)) {
    Result<io::SnapshotReader> reader =
        io::SnapshotReader::Parse(std::move(bytes));
    if (!reader.ok()) return reader.status();
    return LoadV2(std::move(reader).value(), nullptr);
  }
  if (starts_with(io::kDeltaHeaderV2)) {
    return Status::InvalidArgument(
        "FalccModel: artifact is a delta snapshot; apply it to its base "
        "with ApplyDelta instead of loading it directly");
  }
  std::istringstream stream{std::move(bytes)};
  return LoadImpl(&stream, /*compile=*/true);
}

Result<FalccModel> FalccModel::LoadImpl(std::istream* in, bool compile) {
  FALCC_RETURN_IF_ERROR(io::Expect(in, kModelHeader));
  FalccModel model;
  FALCC_RETURN_IF_ERROR(io::Read(in, &model.pool_entropy_));

  Result<ModelPool> pool = ModelPool::Deserialize(in);
  if (!pool.ok()) return pool.status();
  model.pool_ = std::make_shared<const ModelPool>(std::move(pool).value());

  Result<GroupIndex> index = GroupIndex::Deserialize(in);
  if (!index.ok()) return index.status();
  model.group_index_ = std::move(index).value();

  Result<ColumnTransform> transform = ColumnTransform::Deserialize(in);
  if (!transform.ok()) return transform.status();
  model.clustering_transform_ = std::move(transform).value();

  size_t num_centroids = 0;
  FALCC_RETURN_IF_ERROR(io::Read(in, &num_centroids));
  if (num_centroids == 0 || num_centroids > 10000000) {
    return Status::InvalidArgument("FalccModel: implausible centroid count");
  }
  model.centroids_.resize(num_centroids);
  for (auto& c : model.centroids_) {
    FALCC_RETURN_IF_ERROR(io::ReadVector(in, &c));
    if (c.size() != model.clustering_transform_.num_output_features()) {
      return Status::InvalidArgument("FalccModel: centroid width mismatch");
    }
    for (double v : c) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("FalccModel: non-finite centroid");
      }
    }
  }

  size_t num_selected = 0;
  FALCC_RETURN_IF_ERROR(io::Read(in, &num_selected));
  if (num_selected != num_centroids) {
    return Status::InvalidArgument(
        "FalccModel: combination count != centroid count");
  }
  model.selected_.resize(num_selected);
  for (auto& combo : model.selected_) {
    FALCC_RETURN_IF_ERROR(io::ReadVector(in, &combo));
    if (combo.size() != model.group_index_.num_groups()) {
      return Status::InvalidArgument("FalccModel: combination width");
    }
    for (size_t g = 0; g < combo.size(); ++g) {
      const size_t m = combo[g];
      if (m >= model.pool_->size()) {
        return Status::InvalidArgument("FalccModel: model index range");
      }
      if (!model.pool_->Applicable(m, g)) {
        return Status::InvalidArgument(
            "FalccModel: model " + std::to_string(m) +
            " selected for group " + std::to_string(g) +
            " it is not applicable to");
      }
    }
  }

  // Cross-component consistency: the sections above are individually
  // well-formed, but classification indexes samples of width
  // num_features() through the group index and every pool model, so a
  // mismatched pair of sections would read out of bounds (or trip an
  // internal abort) at serving time. Reject it here instead.
  const size_t width = model.num_features();
  for (size_t col : model.group_index_.sensitive_features()) {
    if (col >= width) {
      return Status::InvalidArgument(
          "FalccModel: sensitive column " + std::to_string(col) +
          " out of range for " + std::to_string(width) + " features");
    }
  }
  for (size_t m = 0; m < model.pool_->size(); ++m) {
    FALCC_RETURN_IF_ERROR(model.pool_->model(m).ValidateForWidth(width));
  }

  // Monitoring anchors: optional trailing section (absent in artifacts
  // saved before the drift monitor existed — those load with empty
  // baselines and default assessment parameters).
  std::string marker;
  if (*in >> marker) {
    if (marker != kMonitorSection) {
      return Status::InvalidArgument(
          "FalccModel: unexpected trailing token '" + marker + "'");
    }
    int metric = 0;
    int mode = 0;
    FALCC_RETURN_IF_ERROR(io::Read(in, &model.assess_lambda_));
    FALCC_RETURN_IF_ERROR(io::Read(in, &metric));
    FALCC_RETURN_IF_ERROR(io::Read(in, &mode));
    if (model.assess_lambda_ < 0.0 || model.assess_lambda_ > 1.0) {
      return Status::InvalidArgument("FalccModel: lambda out of range");
    }
    if (metric < 0 ||
        metric > static_cast<int>(FairnessMetric::kTreatmentEquality)) {
      return Status::InvalidArgument("FalccModel: unknown fairness metric");
    }
    if (mode < 0 || mode > static_cast<int>(AssessmentMode::kConsistency)) {
      return Status::InvalidArgument("FalccModel: unknown assessment mode");
    }
    model.assess_metric_ = static_cast<FairnessMetric>(metric);
    model.assess_mode_ = static_cast<AssessmentMode>(mode);
    FALCC_RETURN_IF_ERROR(io::ReadVector(in, &model.baseline_loss_));
    if (!model.baseline_loss_.empty() &&
        model.baseline_loss_.size() != num_centroids) {
      return Status::InvalidArgument(
          "FalccModel: baseline count != centroid count");
    }
    for (double loss : model.baseline_loss_) {
      if (!std::isfinite(loss)) {
        return Status::InvalidArgument("FalccModel: non-finite baseline");
      }
    }
  }
  FALCC_RETURN_IF_ERROR(model.BuildCentroidIndex());
  // Compile after every validation pass above: the kernels gather
  // through feature indices the width checks just vetted, so nothing an
  // accepted artifact contains can make a kernel read out of bounds.
  if (compile) {
    FALCC_RETURN_IF_ERROR(model.CompileKernels());
  }
  return model;
}

Result<FalccModel> FalccModel::LoadV2(io::SnapshotReader reader,
                                      std::shared_ptr<const void> backing) {
  if (reader.is_delta()) {
    return Status::InvalidArgument(
        "FalccModel: artifact is a delta snapshot; apply it to its base "
        "with ApplyDelta instead of loading it directly");
  }
  const io::SnapshotManifest& manifest = reader.manifest();
  // ReadSection verifies the section checksum; its error names the
  // failing section and file offset, which is the diagnostic v2 exists
  // to give.
  auto section = [&](const std::string& name) -> Result<std::string_view> {
    if (!manifest.Has(name)) {
      return Status::InvalidArgument("FalccModel: snapshot is missing the '" +
                                     name + "' section");
    }
    return reader.ReadSection(name);
  };

  FalccModel model;
  {
    Result<std::string_view> payload = section(kSectionMeta);
    if (!payload.ok()) return payload.status();
    std::istringstream s{std::string(payload.value())};
    FALCC_RETURN_IF_ERROR(io::Expect(&s, "entropy"));
    FALCC_RETURN_IF_ERROR(io::Read(&s, &model.pool_entropy_));
    FALCC_RETURN_IF_ERROR(ExpectSectionEnd(&s, kSectionMeta));
  }
  {
    Result<std::string_view> payload = section(kSectionPool);
    if (!payload.ok()) return payload.status();
    std::istringstream s{std::string(payload.value())};
    Result<ModelPool> pool = ModelPool::Deserialize(&s);
    if (!pool.ok()) return pool.status();
    model.pool_ = std::make_shared<const ModelPool>(std::move(pool).value());
    FALCC_RETURN_IF_ERROR(ExpectSectionEnd(&s, kSectionPool));
  }
  {
    Result<std::string_view> payload = section(kSectionGroups);
    if (!payload.ok()) return payload.status();
    std::istringstream s{std::string(payload.value())};
    Result<GroupIndex> index = GroupIndex::Deserialize(&s);
    if (!index.ok()) return index.status();
    model.group_index_ = std::move(index).value();
    FALCC_RETURN_IF_ERROR(ExpectSectionEnd(&s, kSectionGroups));
  }
  {
    Result<std::string_view> payload = section(kSectionTransform);
    if (!payload.ok()) return payload.status();
    std::istringstream s{std::string(payload.value())};
    Result<ColumnTransform> transform = ColumnTransform::Deserialize(&s);
    if (!transform.ok()) return transform.status();
    model.clustering_transform_ = std::move(transform).value();
    FALCC_RETURN_IF_ERROR(ExpectSectionEnd(&s, kSectionTransform));
  }
  {
    Result<std::string_view> payload = section(kSectionClustering);
    if (!payload.ok()) return payload.status();
    std::istringstream s{std::string(payload.value())};
    size_t num_centroids = 0;
    FALCC_RETURN_IF_ERROR(io::Read(&s, &num_centroids));
    if (num_centroids == 0 || num_centroids > 10000000) {
      return Status::InvalidArgument("FalccModel: implausible centroid count");
    }
    model.centroids_.resize(num_centroids);
    for (auto& c : model.centroids_) {
      FALCC_RETURN_IF_ERROR(io::ReadVector(&s, &c));
      if (c.size() != model.clustering_transform_.num_output_features()) {
        return Status::InvalidArgument("FalccModel: centroid width mismatch");
      }
      for (double v : c) {
        if (!std::isfinite(v)) {
          return Status::InvalidArgument("FalccModel: non-finite centroid");
        }
      }
    }
    FALCC_RETURN_IF_ERROR(ExpectSectionEnd(&s, kSectionClustering));
  }
  const size_t k = model.centroids_.size();
  const size_t num_groups = model.group_index_.num_groups();

  // The manifest must list exactly the canonical sections in canonical
  // order — section layout is part of the format, and enforcing it keeps
  // Save ∘ Load ∘ Save a byte fixed point.
  const bool has_monitor = manifest.Has(kSectionMonitor);
  const bool has_flat = manifest.Has(io::kFlatSectionName);
  {
    std::vector<std::string> expected = {kSectionMeta, kSectionPool,
                                         kSectionGroups, kSectionTransform,
                                         kSectionClustering};
    for (size_t c = 0; c < k; ++c) expected.push_back(ComboSectionName(c));
    if (has_monitor) expected.push_back(kSectionMonitor);
    if (has_flat) expected.push_back(io::kFlatSectionName);
    if (manifest.sections.size() != expected.size()) {
      return Status::InvalidArgument(
          "FalccModel: snapshot has " +
          std::to_string(manifest.sections.size()) + " sections, expected " +
          std::to_string(expected.size()));
    }
    for (size_t i = 0; i < expected.size(); ++i) {
      if (manifest.sections[i].name != expected[i]) {
        return Status::InvalidArgument(
            "FalccModel: unexpected section '" + manifest.sections[i].name +
            "' at position " + std::to_string(i) + " (expected '" +
            expected[i] + "')");
      }
    }
  }

  if (has_monitor) {
    Result<std::string_view> payload = section(kSectionMonitor);
    if (!payload.ok()) return payload.status();
    std::istringstream s{std::string(payload.value())};
    int metric = 0;
    int mode = 0;
    FALCC_RETURN_IF_ERROR(io::Read(&s, &model.assess_lambda_));
    FALCC_RETURN_IF_ERROR(io::Read(&s, &metric));
    FALCC_RETURN_IF_ERROR(io::Read(&s, &mode));
    if (model.assess_lambda_ < 0.0 || model.assess_lambda_ > 1.0) {
      return Status::InvalidArgument("FalccModel: lambda out of range");
    }
    if (metric < 0 ||
        metric > static_cast<int>(FairnessMetric::kTreatmentEquality)) {
      return Status::InvalidArgument("FalccModel: unknown fairness metric");
    }
    if (mode < 0 || mode > static_cast<int>(AssessmentMode::kConsistency)) {
      return Status::InvalidArgument("FalccModel: unknown assessment mode");
    }
    model.assess_metric_ = static_cast<FairnessMetric>(metric);
    model.assess_mode_ = static_cast<AssessmentMode>(mode);
    FALCC_RETURN_IF_ERROR(ExpectSectionEnd(&s, kSectionMonitor));
    model.baseline_loss_.assign(k, 0.0);
  }

  model.selected_.resize(k);
  for (size_t c = 0; c < k; ++c) {
    const std::string name = ComboSectionName(c);
    Result<std::string_view> payload = section(name);
    if (!payload.ok()) return payload.status();
    std::istringstream s{std::string(payload.value())};
    ModelCombination& combo = model.selected_[c];
    FALCC_RETURN_IF_ERROR(io::ReadVector(&s, &combo));
    if (combo.size() != num_groups) {
      return Status::InvalidArgument("FalccModel: combination width");
    }
    for (size_t g = 0; g < combo.size(); ++g) {
      const size_t m = combo[g];
      if (m >= model.pool_->size()) {
        return Status::InvalidArgument("FalccModel: model index range");
      }
      if (!model.pool_->Applicable(m, g)) {
        return Status::InvalidArgument(
            "FalccModel: model " + std::to_string(m) + " selected for group " +
            std::to_string(g) + " it is not applicable to");
      }
    }
    std::string tag;
    if (!(s >> tag)) {
      return Status::InvalidArgument("FalccModel: truncated section '" + name +
                                     "'");
    }
    if (tag == "baseline") {
      if (!has_monitor) {
        return Status::InvalidArgument(
            "FalccModel: section '" + name +
            "' carries a baseline but the snapshot has no monitor section");
      }
      double loss = 0.0;
      FALCC_RETURN_IF_ERROR(io::Read(&s, &loss));
      if (!std::isfinite(loss)) {
        return Status::InvalidArgument("FalccModel: non-finite baseline");
      }
      model.baseline_loss_[c] = loss;
    } else if (tag == "none") {
      if (has_monitor) {
        return Status::InvalidArgument(
            "FalccModel: section '" + name +
            "' lacks a baseline despite the monitor section");
      }
    } else {
      return Status::InvalidArgument("FalccModel: bad baseline tag '" + tag +
                                     "' in section '" + name + "'");
    }
    FALCC_RETURN_IF_ERROR(ExpectSectionEnd(&s, name));
  }

  // Cross-component consistency (identical to the v1 checks): the online
  // phase indexes width-num_features() samples through the group index
  // and every pool model, so a mismatched pair of individually
  // well-formed sections must be rejected here.
  const size_t width = model.num_features();
  for (size_t col : model.group_index_.sensitive_features()) {
    if (col >= width) {
      return Status::InvalidArgument(
          "FalccModel: sensitive column " + std::to_string(col) +
          " out of range for " + std::to_string(width) + " features");
    }
  }
  for (size_t m = 0; m < model.pool_->size(); ++m) {
    FALCC_RETURN_IF_ERROR(model.pool_->model(m).ValidateForWidth(width));
  }
  FALCC_RETURN_IF_ERROR(model.BuildCentroidIndex());

  if (has_flat) {
    Result<std::string_view> payload = section(io::kFlatSectionName);
    if (!payload.ok()) return payload.status();
    Result<io::DecodedFlat> decoded = io::DecodeFlatSection(
        payload.value(), num_groups, width, model.pool_->size(), backing);
    if (!decoded.ok()) return decoded.status();
    const io::DecodedFlat& flat = decoded.value();
    auto flat_mismatch = [](const std::string& what) {
      return Status::InvalidArgument(
          "FalccModel: flat section does not match the semantic sections (" +
          what + ")");
    };
    if (flat.slot_of_cluster.size() != k) {
      return flat_mismatch("cluster count");
    }
    if (flat.centroid_width !=
        model.clustering_transform_.num_output_features()) {
      return flat_mismatch("centroid width");
    }
    // Centroid bit-equality against the authoritative text section: the
    // flat copy exists so the match stage can gather from one contiguous
    // array, and any divergence would silently re-route samples.
    for (size_t c = 0; c < k; ++c) {
      if (std::memcmp(model.centroids_[c].data(),
                      flat.centroids.data() + c * flat.centroid_width,
                      flat.centroid_width * sizeof(double)) != 0) {
        return flat_mismatch("centroid bits of cluster " + std::to_string(c));
      }
    }
    // Routing honesty: every (cluster, group) entry in the flat section
    // must dispatch to exactly the pool model the combo sections select.
    for (size_t c = 0; c < k; ++c) {
      const CompiledCombo& kernel =
          *flat.slot_kernels[flat.slot_of_cluster[c]];
      for (size_t g = 0; g < num_groups; ++g) {
        if (kernel.GroupModel(g) != model.selected_[c][g]) {
          return flat_mismatch("entry model of cluster " + std::to_string(c) +
                               ", group " + std::to_string(g));
        }
      }
    }
    if (backing != nullptr) {
      // Zero-copy install: the kernels alias the mapping (structural
      // safety was established by FromParts; `falcc_cli snapshot verify`
      // provides the full recompile check offline).
      model.compiled_.assign(k, nullptr);
      for (size_t c = 0; c < k; ++c) {
        model.compiled_[c] = flat.slot_kernels[flat.slot_of_cluster[c]];
      }
      model.RebuildComboSlots();
    } else {
      // Stream load: the pool stays authoritative — compile from it and
      // require the flat section to match bit for bit.
      FALCC_RETURN_IF_ERROR(model.CompileKernels());
      if (model.combo_slot_ != flat.slot_of_cluster ||
          model.slot_kernel_.size() != flat.slot_kernels.size()) {
        return flat_mismatch("kernel slot layout");
      }
      for (size_t s = 0; s < model.slot_kernel_.size(); ++s) {
        if (!model.slot_kernel_[s]->SameBits(*flat.slot_kernels[s])) {
          return flat_mismatch("kernel bits of slot " + std::to_string(s));
        }
      }
    }
  } else {
    FALCC_RETURN_IF_ERROR(model.CompileKernels());
  }
  model.manifest_ = manifest;
  return model;
}

Result<FalccModel> FalccModel::LoadMapped(const std::string& path) {
  Result<io::MappedFile> file = io::MappedFile::Open(path);
  if (!file.ok()) return file.status();
  auto holder = std::make_shared<const io::MappedFile>(std::move(file).value());
  const std::string_view view = holder->view();
  const std::string header = std::string(io::kSnapshotHeaderV2) + "\n";
  if (view.size() <= header.size() || view.substr(0, header.size()) != header) {
    // Legacy (or delta) artifact: no flat section to alias, so the
    // stream path is the same work.
    return LoadFromFile(path);
  }
  Result<io::SnapshotReader> reader = io::SnapshotReader::ParseView(view);
  if (!reader.ok()) return reader.status();
  return LoadV2(std::move(reader).value(), holder);
}

Status FalccModel::SaveDelta(std::ostream* out,
                             std::span<const size_t> clusters,
                             uint64_t base_hash) const {
  if (clusters.empty()) {
    return Status::InvalidArgument("SaveDelta: no clusters listed");
  }
  std::vector<size_t> sorted(clusters.begin(), clusters.end());
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] >= centroids_.size()) {
      return Status::InvalidArgument("SaveDelta: cluster " +
                                     std::to_string(sorted[i]) +
                                     " out of range");
    }
    if (i > 0 && sorted[i] == sorted[i - 1]) {
      return Status::InvalidArgument("SaveDelta: duplicate cluster " +
                                     std::to_string(sorted[i]));
    }
  }
  io::SnapshotWriter writer(out);
  writer.SetDeltaBase(base_hash);
  for (size_t c : sorted) {
    WriteComboSection(writer.BeginSection(ComboSectionName(c)), c);
    FALCC_RETURN_IF_ERROR(writer.EndSection());
  }
  return writer.Finish();
}

Result<FalccModel> FalccModel::ApplyDeltaBytes(std::string_view bytes) const {
  Result<io::SnapshotReader> parsed = io::SnapshotReader::ParseView(bytes);
  if (!parsed.ok()) return parsed.status();
  const io::SnapshotReader& reader = parsed.value();
  if (!reader.is_delta()) {
    return Status::InvalidArgument(
        "ApplyDelta: artifact is a full snapshot, not a delta");
  }
  Result<uint64_t> hash = ContentHash();
  if (!hash.ok()) return hash.status();
  if (reader.base_hash() != hash.value()) {
    // At-least-once feeds redeliver deltas. If every delta section is
    // already live bit for bit (same length and checksum as the equally
    // named section here), the post-apply content hash equals the live
    // one — the delta's effect is already installed, so accept it as a
    // success no-op and rebuild the identical model below. Anything
    // else is a genuine chain break.
    io::SnapshotManifest computed;
    const io::SnapshotManifest* live = nullptr;
    if (manifest_.has_value()) {
      live = &*manifest_;
    } else {
      std::ostringstream sink;
      if (SaveV2(&sink, &computed).ok()) live = &computed;
    }
    bool already_applied = live != nullptr;
    if (already_applied) {
      for (const io::SectionInfo& info : reader.manifest().sections) {
        const io::SectionInfo* have = live->Find(info.name);
        if (have == nullptr || have->length != info.length ||
            have->checksum != info.checksum) {
          already_applied = false;
          break;
        }
      }
    }
    if (!already_applied) {
      return Status::FailedPrecondition(
          "ApplyDelta: delta applies to base " +
          io::HashHex(reader.base_hash()) +
          " but the installed snapshot has content hash " +
          io::HashHex(hash.value()));
    }
  }
  const bool has_baselines = !baseline_loss_.empty();
  std::vector<ClusterRefresh> refreshes;
  std::vector<bool> seen(centroids_.size(), false);
  for (const io::SectionInfo& info : reader.manifest().sections) {
    Result<size_t> cluster =
        ParseComboSectionName(info.name, centroids_.size());
    if (!cluster.ok()) return cluster.status();
    if (seen[cluster.value()]) {
      return Status::InvalidArgument("ApplyDelta: duplicate cluster " +
                                     std::to_string(cluster.value()));
    }
    seen[cluster.value()] = true;
    Result<std::string_view> payload = reader.ReadSection(info.name);
    if (!payload.ok()) return payload.status();
    std::istringstream s{std::string(payload.value())};
    ClusterRefresh refresh;
    refresh.cluster = cluster.value();
    FALCC_RETURN_IF_ERROR(io::ReadVector(&s, &refresh.combination));
    std::string tag;
    if (!(s >> tag)) {
      return Status::InvalidArgument("ApplyDelta: truncated section '" +
                                     info.name + "'");
    }
    if (tag == "baseline") {
      if (!has_baselines) {
        return Status::InvalidArgument(
            "ApplyDelta: delta carries a baseline but the base snapshot "
            "has none");
      }
      FALCC_RETURN_IF_ERROR(io::Read(&s, &refresh.baseline_loss));
    } else if (tag == "none") {
      if (has_baselines) {
        return Status::InvalidArgument(
            "ApplyDelta: delta lacks a baseline the base snapshot tracks");
      }
    } else {
      return Status::InvalidArgument("ApplyDelta: bad baseline tag '" + tag +
                                     "' in section '" + info.name + "'");
    }
    FALCC_RETURN_IF_ERROR(ExpectSectionEnd(&s, info.name));
    refreshes.push_back(std::move(refresh));
  }
  // Combination validity (width, range, applicability, finite baseline)
  // is enforced by CloneWithRefreshes — the same gate the monitor's
  // in-process refresh goes through.
  return CloneWithRefreshes(refreshes);
}

Status FalccModel::EnsureManifest() {
  if (manifest_.has_value()) return Status::OK();
  std::ostringstream sink;
  io::SnapshotManifest manifest;
  FALCC_RETURN_IF_ERROR(SaveV2(&sink, &manifest));
  manifest_ = std::move(manifest);
  return Status::OK();
}

Result<uint64_t> FalccModel::ContentHash() const {
  if (manifest_.has_value()) return manifest_->ContentHash();
  std::ostringstream sink;
  io::SnapshotManifest manifest;
  FALCC_RETURN_IF_ERROR(SaveV2(&sink, &manifest));
  return manifest.ContentHash();
}

Result<FalccModel> FalccModel::CloneWithRefreshes(
    std::span<const ClusterRefresh> refreshes) const {
  // In-memory clone: the pool is shared (immutable, by far the largest
  // component) and everything else is copied, so the clone costs
  // O(refreshed clusters + routing tables), not a serialization round
  // trip of the whole model. Training diagnostics (assignment_) are not
  // carried over, matching what a save/load round trip would drop.
  FalccModel model;
  model.pool_ = pool_;
  model.pool_entropy_ = pool_entropy_;
  model.group_index_ = group_index_;
  model.clustering_transform_ = clustering_transform_;
  model.centroids_ = centroids_;
  model.centroid_index_ = centroid_index_;
  model.selected_ = selected_;
  model.baseline_loss_ = baseline_loss_;
  model.use_compiled_ = use_compiled_;
  model.assess_lambda_ = assess_lambda_;
  model.assess_metric_ = assess_metric_;
  model.assess_mode_ = assess_mode_;
  for (const ClusterRefresh& refresh : refreshes) {
    if (refresh.cluster >= model.centroids_.size()) {
      return Status::InvalidArgument("CloneWithRefreshes: cluster " +
                                     std::to_string(refresh.cluster) +
                                     " out of range");
    }
    if (refresh.combination.size() != model.group_index_.num_groups()) {
      return Status::InvalidArgument(
          "CloneWithRefreshes: combination width != num_groups");
    }
    for (size_t g = 0; g < refresh.combination.size(); ++g) {
      const size_t m = refresh.combination[g];
      if (m >= model.pool_->size() || !model.pool_->Applicable(m, g)) {
        return Status::InvalidArgument(
            "CloneWithRefreshes: model " + std::to_string(m) +
            " is not applicable to group " + std::to_string(g));
      }
    }
    if (!std::isfinite(refresh.baseline_loss)) {
      return Status::InvalidArgument(
          "CloneWithRefreshes: non-finite baseline loss");
    }
    model.selected_[refresh.cluster] = refresh.combination;
    if (model.has_baseline_losses()) {
      model.baseline_loss_[refresh.cluster] = refresh.baseline_loss;
    }
  }
  if (has_compiled_kernels()) {
    // Kernel reuse: untouched clusters share this model's compiled
    // combos pointer-for-pointer; each distinct refreshed combination
    // compiles exactly once.
    model.compiled_ = compiled_;
    std::map<ModelCombination, std::shared_ptr<const CompiledCombo>> fresh;
    for (const ClusterRefresh& refresh : refreshes) {
      auto [it, inserted] = fresh.try_emplace(refresh.combination);
      if (inserted) {
        Result<std::shared_ptr<const CompiledCombo>> combo =
            CompiledCombo::Compile(*model.pool_, refresh.combination);
        if (!combo.ok()) return combo.status();
        it->second = std::move(combo).value();
      }
      model.compiled_[refresh.cluster] = it->second;
    }
    model.RebuildComboSlots();
  }
  // Incremental manifest update: a refresh changes only the refreshed
  // clusters' combo sections (and invalidates the derived flat cache),
  // so the clone's content hash is recomputed from per-section metadata
  // without serializing the model. Offsets go stale but nothing reads
  // them (ContentHash folds name/length/checksum only); EnsureManifest
  // on a fresh save restores exact offsets.
  if (manifest_.has_value()) {
    io::SnapshotManifest manifest = *manifest_;
    bool consistent = true;
    for (const ClusterRefresh& refresh : refreshes) {
      std::ostringstream payload;
      io::PrepareStream(&payload);
      model.WriteComboSection(&payload, refresh.cluster);
      const std::string bytes = std::move(payload).str();
      bool found = false;
      for (io::SectionInfo& info : manifest.sections) {
        if (info.name == ComboSectionName(refresh.cluster)) {
          info.length = bytes.size();
          info.checksum = io::Fnv1a(bytes);
          found = true;
          break;
        }
      }
      consistent = consistent && found;
    }
    std::erase_if(manifest.sections, [](const io::SectionInfo& info) {
      return info.name == io::kFlatSectionName;
    });
    if (consistent) model.manifest_ = std::move(manifest);
  }
  return model;
}

Status FalccModel::SaveToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  FALCC_RETURN_IF_ERROR(Save(&out));
  out.flush();
  if (!out) return Status::IOError("write to " + path + " failed");
  return Status::OK();
}

Result<FalccModel> FalccModel::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  return Load(&in);
}

Status FalccModel::ValidateSample(std::span<const double> features) const {
  if (features.size() != num_features()) {
    return Status::InvalidArgument(
        "sample has " + std::to_string(features.size()) +
        " features; the model expects " + std::to_string(num_features()));
  }
  for (size_t j = 0; j < features.size(); ++j) {
    if (!std::isfinite(features[j])) {
      return Status::InvalidArgument("non-finite feature value in column " +
                                     std::to_string(j));
    }
  }
  return Status::OK();
}

size_t FalccModel::MatchCluster(std::span<const double> features) const {
  const Status valid = ValidateSample(features);
  FALCC_CHECK(valid.ok(), valid.ToString().c_str());
  const std::vector<double> processed = clustering_transform_.Apply(features);
  if (centroid_index_.has_value()) {
    return centroid_index_->Nearest1(processed);
  }
  return NearestCentroid(centroids_, processed);
}

Result<size_t> FalccModel::GroupOf(std::span<const double> features) const {
  FALCC_RETURN_IF_ERROR(ValidateSample(features));
  return group_index_.GroupOfOrNearest(features);
}

int FalccModel::Classify(std::span<const double> features) const {
  const size_t cluster = MatchCluster(features);
  const size_t group = group_index_.GroupOfOrNearest(features);
  const size_t m = selected_[cluster][group];
  return pool_->model(m).Predict(features);
}

double FalccModel::ClassifyProba(std::span<const double> features) const {
  const size_t cluster = MatchCluster(features);
  const size_t group = group_index_.GroupOfOrNearest(features);
  const size_t m = selected_[cluster][group];
  return pool_->model(m).PredictProba(features);
}

void FalccModel::ClassifyRowsInto(const Dataset& data,
                                  ClassifyResponse* response,
                                  ClassifyScratch* scratch) const {
  const size_t n = data.num_rows();
  std::vector<SampleDecision>& decisions = response->decisions;
  decisions.assign(n, SampleDecision{});
  Timer stage_timer;

  // Stage 1 — sample processing (§3.7 step 1) into one contiguous
  // row-major matrix (caller scratch, reused across batches). One
  // transform buffer per chunk: the per-sample Apply allocation
  // dominates the nearest-centroid lookup on small models.
  const size_t width = clustering_transform_.num_output_features();
  std::vector<double>& transformed = scratch->transformed;
  transformed.resize(n * width);
  ParallelFor(0, n, 256, [&](size_t /*chunk*/, size_t lo, size_t hi) {
    std::vector<double> scratch;
    for (size_t i = lo; i < hi; ++i) {
      clustering_transform_.ApplyInto(data.Row(i), &scratch);
      std::copy(scratch.begin(), scratch.end(),
                transformed.begin() + static_cast<ptrdiff_t>(i * width));
    }
  });
  response->stages.transform = stage_timer.ElapsedSeconds();
  stage_timer.Restart();

  // Stage 2 — route every row to the model stored for its (region,
  // group). The sensitive-key scratch buffer is reused across the chunk.
  ParallelFor(0, n, 256, [&](size_t /*chunk*/, size_t lo, size_t hi) {
    std::vector<double> key_scratch;
    for (size_t i = lo; i < hi; ++i) {
      const std::span<const double> point(transformed.data() + i * width,
                                          width);
      const size_t cluster = centroid_index_.has_value()
                                 ? centroid_index_->Nearest1(point)
                                 : NearestCentroid(centroids_, point);
      const size_t group =
          group_index_.GroupOfOrNearest(data.Row(i), &key_scratch);
      decisions[i].cluster = cluster;
      decisions[i].group = group;
      decisions[i].model = selected_[cluster][group];
    }
  });
  response->stages.match = stage_timer.ElapsedSeconds();
  stage_timer.Restart();

  // Stage 3 — batch inference. With compiled kernels, rows group by
  // (kernel slot, group): each segment runs one fused flat-node walk —
  // no group routing or per-model virtual dispatch inside the segment —
  // with non-lowerable models falling back to the interpreted batch
  // path. Without kernels, rows group by model exactly as before. The
  // counting sort keeps row ids ascending within each segment and
  // per-row results are independent, so the regrouping cannot change any
  // prediction; segments write disjoint slices of the shared scratch
  // probability buffer, so the parallel loop allocates nothing.
  const bool fused = use_compiled_ && has_compiled_kernels();
  const size_t groups = num_groups();
  const size_t num_keys =
      fused ? slot_kernel_.size() * groups : pool_->size();
  auto key_of = [&](const SampleDecision& d) {
    return fused ? combo_slot_[d.cluster] * groups + d.group : d.model;
  };
  std::vector<size_t>& offsets = scratch->offsets;
  std::vector<size_t>& cursor = scratch->cursor;
  std::vector<size_t>& rows = scratch->rows;
  std::vector<double>& proba = scratch->proba;
  offsets.assign(num_keys + 1, 0);
  for (size_t i = 0; i < n; ++i) ++offsets[key_of(decisions[i]) + 1];
  for (size_t s = 0; s < num_keys; ++s) offsets[s + 1] += offsets[s];
  rows.resize(n);
  proba.resize(n);
  cursor.assign(offsets.begin(), offsets.end() - 1);
  for (size_t i = 0; i < n; ++i) rows[cursor[key_of(decisions[i])]++] = i;
  ParallelFor(0, num_keys, 1, [&](size_t /*chunk*/, size_t lo, size_t hi) {
    for (size_t s = lo; s < hi; ++s) {
      const std::span<const size_t> segment_rows(rows.data() + offsets[s],
                                                 offsets[s + 1] - offsets[s]);
      if (segment_rows.empty()) continue;
      const std::span<double> segment_proba(proba.data() + offsets[s],
                                            segment_rows.size());
      if (fused) {
        const CompiledCombo& combo = *slot_kernel_[s / groups];
        const size_t g = s % groups;
        if (combo.GroupCompiled(g)) {
          combo.PredictGroup(data, g, segment_rows, segment_proba);
        } else {
          pool_->model(combo.GroupModel(g))
              .PredictProbaBatch(data, segment_rows, segment_proba);
        }
      } else {
        pool_->model(s).PredictProbaBatch(data, segment_rows, segment_proba);
      }
      for (size_t j = 0; j < segment_rows.size(); ++j) {
        SampleDecision& d = decisions[segment_rows[j]];
        d.probability = segment_proba[j];
        d.label = segment_proba[j] >= 0.5 ? 1 : 0;
      }
    }
  });
  response->stages.predict = stage_timer.ElapsedSeconds();
}

std::vector<int> FalccModel::ClassifyAll(const Dataset& data) const {
  FALCC_CHECK(data.num_features() == num_features(),
              "ClassifyAll: dataset width differs from model num_features()");
  ClassifyResponse response;
  ClassifyScratch scratch;
  ClassifyRowsInto(data, &response, &scratch);
  std::vector<int> out(data.num_rows());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = response.decisions[i].label;
  }
  return out;
}

Result<ClassifyResponse> FalccModel::ClassifyBatch(
    const ClassifyRequest& request) const {
  // One scratch per serving thread: steady-state batches reuse the
  // transform matrix, sort arrays, and the wrapper Dataset without any
  // per-call allocation. Distinct models on one thread just re-grow it.
  static thread_local ClassifyScratch scratch;
  return ClassifyBatch(request, &scratch);
}

Result<ClassifyResponse> FalccModel::ClassifyBatch(
    const ClassifyRequest& request, ClassifyScratch* scratch) const {
  Timer validate_timer;
  const size_t width = num_features();
  if (request.num_features != width) {
    return Status::InvalidArgument(
        "ClassifyBatch: request num_features=" +
        std::to_string(request.num_features) + " but the model expects " +
        std::to_string(width));
  }
  if (request.features.size() % width != 0) {
    return Status::InvalidArgument(
        "ClassifyBatch: features.size()=" +
        std::to_string(request.features.size()) +
        " is not a multiple of num_features=" + std::to_string(width));
  }
  const size_t n = request.features.size() / width;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < width; ++j) {
      if (!std::isfinite(request.features[i * width + j])) {
        return Status::InvalidArgument(
            "ClassifyBatch: non-finite value in sample " + std::to_string(i) +
            ", column " + std::to_string(j));
      }
    }
  }
  ClassifyResponse response;
  response.stages.validate = validate_timer.ElapsedSeconds();
  if (n == 0) return response;

  // Wrap the request in a Dataset so the kernel (and the per-model
  // PredictProbaBatch underneath) can run unchanged: placeholder names
  // and labels, the model's own sensitive columns for group routing.
  // The wrapper lives in the scratch; when its cached schema still
  // matches this model, only the feature rows are replaced in place.
  Dataset& wrap = scratch->wrap;
  if (scratch->wrap_valid && wrap.num_features() == width &&
      wrap.sensitive_features() == group_index_.sensitive_features()) {
    wrap.ReplaceRows(request.features);
  } else {
    scratch->wrap_valid = false;
    std::vector<std::string> names(width);
    for (size_t j = 0; j < width; ++j) names[j] = "f" + std::to_string(j);
    Result<Dataset> data = Dataset::Create(
        std::move(names),
        std::vector<double>(request.features.begin(), request.features.end()),
        width, std::vector<int>(n, 0), group_index_.sensitive_features());
    if (!data.ok()) return data.status();
    wrap = std::move(data).value();
    scratch->wrap_valid = true;
  }
  ClassifyRowsInto(wrap, &response, scratch);
  return response;
}

}  // namespace falcc
