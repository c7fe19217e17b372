// Tests of the compiled flat-node inference kernels: bit-identity with
// the interpreted prediction path for every lowerable model family
// (every batch size up to two blocks, remainder lane groups, mixed tree
// depths in one lane group), fallback behaviour for models that do not
// lower, stitching/dedup in CompiledCombo, bit-identity on the
// checked-in golden models (batched and in 1-3 row PredictGroup calls),
// and classify-during-hot-swap-recompile concurrency (the TSan target in
// tools/check.sh).

#include "ml/compiled_ensemble.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/falcc.h"
#include "core/model_pool.h"
#include "data/split.h"
#include "datagen/synthetic.h"
#include "ml/adaboost.h"
#include "ml/decision_tree.h"
#include "ml/logistic_regression.h"
#include "ml/random_forest.h"
#include "ml/serialize.h"
#include "serve/engine.h"

namespace falcc {
namespace {

Dataset MakeData(size_t n = 400, uint64_t seed = 9) {
  SyntheticConfig config;
  config.num_samples = n;
  config.seed = seed;
  return GenerateImplicitBias(config).value();
}

std::vector<size_t> AllRows(size_t n) {
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = i;
  return rows;
}

// Compiled and interpreted probabilities over `rows` must be equal as
// doubles — not approximately: the kernel contract is bit-identity.
void ExpectBitIdentical(const Classifier& model, const CompiledEnsemble& kernel,
                        const Dataset& data, std::span<const size_t> rows) {
  std::vector<double> interpreted(rows.size());
  std::vector<double> compiled(rows.size());
  model.PredictProbaBatch(data, rows, interpreted);
  kernel.PredictProbaBatch(data, rows, compiled);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(interpreted[i], compiled[i]) << "row " << rows[i];
  }
}

// Every batch size from 0 to 65 — each lane schedule the kernel can pick
// (a block of n rows walks 32 / n trees side by side, so 1, 2, 3, ... rows
// group the trees differently, and 33..65 rows leave a short second
// block) — plus a full pass.
void CheckAllBlockEdges(const Classifier& model, const Dataset& data) {
  const Result<CompiledEnsemble> kernel = CompiledEnsemble::Compile(model);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  const std::vector<size_t> all = AllRows(data.num_rows());
  const size_t sweep = std::min<size_t>(65, data.num_rows());
  for (size_t n = 0; n <= sweep; ++n) {
    SCOPED_TRACE(testing::Message() << "batch " << n);
    ExpectBitIdentical(model, kernel.value(), data,
                       std::span<const size_t>(all).subspan(0, n));
  }
  ExpectBitIdentical(model, kernel.value(), data, all);
}

TEST(CompiledEnsembleTest, DecisionTreeBitIdentity) {
  const Dataset data = MakeData();
  DecisionTreeOptions options;
  options.max_depth = 12;
  DecisionTree tree(options);
  ASSERT_TRUE(tree.Fit(data).ok());
  CheckAllBlockEdges(tree, data);
}

TEST(CompiledEnsembleTest, StumpAndConstantTreeBitIdentity) {
  const Dataset data = MakeData(200, 3);
  DecisionTreeOptions options;
  options.max_depth = 1;
  DecisionTree stump(options);
  ASSERT_TRUE(stump.Fit(data).ok());
  CheckAllBlockEdges(stump, data);

  // A dataset with one constant label trains a root-only tree — the
  // zero-step walk must still land on the (root) leaf.
  Dataset constant = MakeData(64, 4);
  for (size_t i = 0; i < constant.num_rows(); ++i) constant.SetLabel(i, 1);
  DecisionTree leaf_only(options);
  ASSERT_TRUE(leaf_only.Fit(constant).ok());
  CheckAllBlockEdges(leaf_only, constant);
}

TEST(CompiledEnsembleTest, AdaBoostBitIdentity) {
  const Dataset data = MakeData();
  AdaBoostOptions deep;
  deep.num_estimators = 40;
  deep.base.max_depth = 8;
  AdaBoost boosted(deep);
  ASSERT_TRUE(boosted.Fit(data).ok());
  CheckAllBlockEdges(boosted, data);

  AdaBoostOptions shallow;
  shallow.num_estimators = 20;
  shallow.base.max_depth = 4;
  AdaBoost stumps(shallow);
  ASSERT_TRUE(stumps.Fit(data).ok());
  CheckAllBlockEdges(stumps, data);
}

TEST(CompiledEnsembleTest, RandomForestBitIdentity) {
  const Dataset data = MakeData();
  RandomForestOptions options;
  options.num_trees = 40;
  options.base.max_depth = 10;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(data).ok());
  CheckAllBlockEdges(forest, data);
}

// Tree counts that leave a partial last lane group for most batch sizes
// (1 and 3 trees fill few lanes of a 1-row block; 31, 33 and 40 straddle
// a 32-tree group), for every ensemble kind.
TEST(CompiledEnsembleTest, TreeCountsLeavingRemainderLaneGroups) {
  const Dataset data = MakeData(300, 12);
  for (size_t count : {size_t{1}, size_t{3}, size_t{31}, size_t{33},
                       size_t{40}}) {
    SCOPED_TRACE(testing::Message() << "trees " << count);
    AdaBoostOptions boost_options;
    boost_options.num_estimators = count;
    boost_options.base.max_depth = 3;
    AdaBoost boosted(boost_options);
    ASSERT_TRUE(boosted.Fit(data).ok());
    ASSERT_EQ(boosted.num_fitted(), count);
    CheckAllBlockEdges(boosted, data);

    RandomForestOptions forest_options;
    forest_options.num_trees = count;
    forest_options.base.max_depth = 6;
    RandomForest forest(forest_options);
    ASSERT_TRUE(forest.Fit(data).ok());
    CheckAllBlockEdges(forest, data);
  }
  DecisionTreeOptions tree_options;
  tree_options.max_depth = 7;
  DecisionTree tree(tree_options);
  ASSERT_TRUE(tree.Fit(data).ok());
  CheckAllBlockEdges(tree, data);
}

// Trees of very different walk lengths inside one lane group: depth-9
// trees, stumps, and root-only leaves (zero steps). Lanes whose tree has
// landed must spin on their leaf while the group's deepest tree walks on.
TEST(CompiledEnsembleTest, MixedDepthsInOneLaneGroup) {
  const Dataset data = MakeData(400, 13);
  std::vector<DecisionTree> forest_trees;
  std::vector<DecisionTree> boost_trees;
  std::vector<double> alphas;
  for (size_t t = 0; t < 40; ++t) {
    Dataset train = MakeData(300, 100 + t);
    if (t % 7 == 3) {  // constant labels train a root-only leaf
      for (size_t i = 0; i < train.num_rows(); ++i) train.SetLabel(i, 1);
    }
    DecisionTreeOptions options;
    options.max_depth = t % 5 == 0 ? 9 : 1;
    DecisionTree fitted(options);
    ASSERT_TRUE(fitted.Fit(train).ok());
    forest_trees.push_back(fitted);
    boost_trees.push_back(fitted);
    alphas.push_back(0.25 + 0.125 * static_cast<double>(t % 6));
  }
  const RandomForest forest =
      RandomForest::FromParts(RandomForestOptions{}, std::move(forest_trees));
  CheckAllBlockEdges(forest, data);
  const AdaBoost boosted = AdaBoost::FromParts(
      AdaBoostOptions{}, std::move(boost_trees), std::move(alphas));
  CheckAllBlockEdges(boosted, data);
}

TEST(CompiledEnsembleTest, NonLowerableModelsFailPrecondition) {
  const Dataset data = MakeData(200, 5);
  LogisticRegression logistic;
  ASSERT_TRUE(logistic.Fit(data).ok());
  const Result<CompiledEnsemble> kernel = CompiledEnsemble::Compile(logistic);
  EXPECT_FALSE(kernel.ok());
  EXPECT_EQ(kernel.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CompiledComboTest, FusedGroupsMatchAndFallbackRoutes) {
  const Dataset data = MakeData();
  auto boosted = std::make_unique<AdaBoost>();
  ASSERT_TRUE(boosted->Fit(data).ok());
  auto logistic = std::make_unique<LogisticRegression>();
  ASSERT_TRUE(logistic->Fit(data).ok());
  const AdaBoost& boosted_ref = *boosted;

  ModelPool pool;
  pool.Add(std::move(boosted));
  pool.Add(std::move(logistic));

  const ModelCombination combo = {0, 1};
  const auto compiled = CompiledCombo::Compile(pool, combo);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const CompiledCombo& kernel = *compiled.value();

  ASSERT_EQ(kernel.num_groups(), 2u);
  EXPECT_TRUE(kernel.GroupCompiled(0));
  EXPECT_FALSE(kernel.GroupCompiled(1));  // logistic: interpreted fallback
  EXPECT_EQ(kernel.GroupModel(0), 0u);
  EXPECT_EQ(kernel.GroupModel(1), 1u);
  EXPECT_EQ(kernel.num_compiled_groups(), 1u);

  const std::vector<size_t> rows = AllRows(data.num_rows());
  std::vector<double> interpreted(rows.size());
  std::vector<double> fused(rows.size());
  boosted_ref.PredictProbaBatch(data, rows, interpreted);
  kernel.PredictGroup(data, 0, rows, fused);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(interpreted[i], fused[i]) << "row " << i;
  }
}

TEST(CompiledComboTest, GroupsSharingAModelShareOneLoweredEntry) {
  const Dataset data = MakeData(300, 6);
  auto boosted = std::make_unique<AdaBoost>();
  ASSERT_TRUE(boosted->Fit(data).ok());
  const Result<CompiledEnsemble> standalone =
      CompiledEnsemble::Compile(*boosted);
  ASSERT_TRUE(standalone.ok());

  ModelPool pool;
  pool.Add(std::move(boosted));
  const ModelCombination combo = {0, 0, 0};  // three groups, one model
  const auto compiled = CompiledCombo::Compile(pool, combo);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  // The model is lowered once, not once per group.
  EXPECT_EQ(compiled.value()->num_nodes(), standalone.value().num_nodes());
  EXPECT_EQ(compiled.value()->num_compiled_groups(), 3u);
}

TEST(CompiledComboTest, IndependentCompilesOfSameComboAreBitIdentical) {
  const Dataset data = MakeData(300, 7);
  auto forest = std::make_unique<RandomForest>();
  ASSERT_TRUE(forest->Fit(data).ok());
  ModelPool pool;
  pool.Add(std::move(forest));
  const ModelCombination combo = {0, 0};
  const auto a = CompiledCombo::Compile(pool, combo);
  const auto b = CompiledCombo::Compile(pool, combo);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a.value()->SameBits(*b.value()));
  EXPECT_NE(a.value().get(), b.value().get());
}

// --- Golden models -----------------------------------------------------

// Serves `model` through a one-group CompiledCombo in consecutive calls
// of 1, 2 and 3 rows — the tiny per-(cluster, group) segments of online
// serving — against the interpreted batch over the same rows.
void CheckPredictGroupRowByRow(std::unique_ptr<Classifier> model,
                               const Dataset& data) {
  const Classifier& reference = *model;
  ModelPool pool;
  pool.Add(std::move(model));
  const auto combo = CompiledCombo::Compile(pool, ModelCombination{0});
  ASSERT_TRUE(combo.ok()) << combo.status().ToString();
  ASSERT_TRUE(combo.value()->GroupCompiled(0));
  const std::vector<size_t> all = AllRows(data.num_rows());
  for (size_t step : {size_t{1}, size_t{2}, size_t{3}}) {
    for (size_t begin = 0; begin < all.size(); begin += step) {
      const auto rows = std::span<const size_t>(all).subspan(
          begin, std::min(step, all.size() - begin));
      std::vector<double> interpreted(rows.size());
      std::vector<double> fused(rows.size());
      reference.PredictProbaBatch(data, rows, interpreted);
      combo.value()->PredictGroup(data, 0, rows, fused);
      for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(interpreted[i], fused[i])
            << "row " << rows[i] << ", " << step << " rows per call";
      }
    }
  }
}

// The checked-in reference models (tests/golden/) pin the trainers'
// exact behaviour; the compiled kernels must reproduce each of them bit
// for bit on a deterministic probe grid.
TEST(CompiledGoldenTest, GoldenModelsCompileBitIdentical) {
  const std::string kGolden[] = {
      "adaboost_weighted.txt",      "random_forest_bootstrap.txt",
      "tree_entropy_weighted.txt",  "tree_gini_duplicates.txt",
      "tree_max_features.txt",      "tree_min_leaf.txt",
  };
  for (const std::string& name : kGolden) {
    SCOPED_TRACE(name);
    std::ifstream in(std::string(FALCC_GOLDEN_DIR) + "/" + name);
    ASSERT_TRUE(in.good()) << "missing golden file";
    Result<std::unique_ptr<Classifier>> model = DeserializeClassifier(&in);
    ASSERT_TRUE(model.ok()) << model.status().ToString();

    // Recover the model's input width by probing the validator.
    size_t width = 0;
    for (size_t w = 1; w <= 64; ++w) {
      if (model.value()->ValidateForWidth(w).ok()) {
        width = w;
        break;
      }
    }
    ASSERT_GT(width, 0u) << "no width in 1..64 validates";

    // Deterministic probe grid crossing the row-block boundary.
    const size_t n = 45;
    std::vector<double> features(n * width);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < width; ++j) {
        features[i * width + j] =
            static_cast<double>((i * 7 + j * 3) % 23) * 0.25 - 2.0;
      }
    }
    std::vector<std::string> names(width);
    for (size_t j = 0; j < width; ++j) names[j] = "f" + std::to_string(j);
    const Dataset probe =
        Dataset::Create(std::move(names), std::move(features), width,
                        std::vector<int>(n, 0), {})
            .value();
    CheckAllBlockEdges(*model.value(), probe);
    CheckPredictGroupRowByRow(std::move(model).value(), probe);
  }
}

// --- Concurrency (TSan target) -----------------------------------------

TrainValTest MakeSplits() {
  SyntheticConfig cfg;
  cfg.num_samples = 1500;
  cfg.seed = 7;
  const Dataset d = GenerateImplicitBias(cfg).value();
  return SplitDatasetDefault(d, 11).value();
}

FalccOptions FastOptions() {
  FalccOptions opt;
  opt.seed = 42;
  opt.trainer.estimator_grid = {5};
  opt.trainer.depth_grid = {1, 4};
  opt.trainer.pool_size = 3;
  return opt;
}

// Readers classify continuously while the main thread repeatedly
// hot-swaps models whose kernels were dropped — forcing Install's
// compile-before-publish path to race against serving. Under TSan this
// is the "concurrent classify during hot-swap recompile" check.
TEST(CompiledConcurrencyTest, ClassifyDuringHotSwapRecompile) {
  const TrainValTest s = MakeSplits();
  FalccModel model =
      FalccModel::Train(s.train, s.validation, FastOptions()).value();
  std::ostringstream buffer;
  ASSERT_TRUE(model.Save(&buffer).ok());
  const std::string bytes = buffer.str();

  serve::FalccEngine engine;
  engine.Install(std::move(model));

  std::vector<double> batch;
  const size_t width = s.test.num_features();
  for (size_t i = 0; i < 64; ++i) {
    const auto row = s.test.Row(i);
    batch.insert(batch.end(), row.begin(), row.end());
  }
  ClassifyRequest request{batch, width};

  std::atomic<bool> stop{false};
  std::atomic<size_t> served{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const Result<ClassifyResponse> response = engine.ClassifyBatch(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      served.fetch_add(response.value().decisions.size(),
                       std::memory_order_relaxed);
    }
  });

  for (int swap = 0; swap < 8; ++swap) {
    std::istringstream in(bytes);
    FalccModel next = FalccModel::Load(&in).value();
    next.ClearCompiledKernels();  // force Install to recompile
    engine.Install(std::move(next));
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(served.load(), 0u);
  EXPECT_TRUE(engine.snapshot()->has_compiled_kernels());
  EXPECT_GE(engine.GetMetrics().compile.count, 8u);
}

}  // namespace
}  // namespace falcc
