// Deterministic fuzz harness over the snapshot loader, CSV parser, and
// socket-feed wire codec.
//
// Two layers, matching how the corpus workflow runs:
//  * FuzzCorpusTest — replays every checked-in regression input from
//    tests/corpus/ through the target contracts. Always runs in plain
//    ctest, so a loader fix can never regress silently.
//  * FuzzSmokeTest — the seeded mutation loop (label `fuzz`). Default
//    budget keeps plain ctest fast; `tools/check.sh --fuzz-only` runs it
//    under ASan/UBSan with FALCC_FUZZ_ITERS=10000 per target.

#include "testing/fuzz.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/falcc.h"
#include "data/csv_dataset.h"
#include "data/split.h"
#include "datagen/synthetic.h"
#include "replicate/wire.h"
#include "testing/invariants.h"
#include "util/csv.h"

namespace falcc {
namespace {

using testing::FuzzCsvParse;
using testing::FuzzIterationsFromEnv;
using testing::FuzzOptions;
using testing::FuzzSnapshotLoad;
using testing::FuzzStats;
using testing::FuzzWireFrame;
using testing::LoadCorpus;
using testing::RunFuzz;

// A tiny trained model: the structure-aware seed every snapshot
// mutation starts from. Small on purpose — mutation cost is linear in
// the seed size and the interesting structure is all near the front.
const FalccModel& TinyModel() {
  static const FalccModel* model = [] {
    SyntheticConfig cfg;
    cfg.num_samples = 160;
    cfg.seed = 7;
    const Dataset d = GenerateImplicitBias(cfg).value();
    const TrainValTest s = SplitDatasetDefault(d, 11).value();
    FalccOptions opt;
    opt.seed = 42;
    opt.fixed_k = 2;
    opt.trainer.estimator_grid = {2};
    opt.trainer.depth_grid = {1};
    opt.trainer.pool_size = 2;
    return new FalccModel(
        FalccModel::Train(s.train, s.validation, opt).value());
  }();
  return *model;
}

// The model in the sectioned v2 container (the default save format for
// trained models).
const std::string& TinySnapshot() {
  static const std::string* bytes = [] {
    std::string out;
    EXPECT_TRUE(testing::SaveToString(TinyModel(), &out).ok());
    return new std::string(out);
  }();
  return *bytes;
}

// One checked-in corpus file.
std::string CorpusFile(const std::string& name) {
  std::ifstream in(std::string(FALCC_CORPUS_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << name;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// The legacy v1 text format is load-only, so its seeds are checked in: a
// tiny model with the optional monitor section, and the same artifact
// without it — the oldest layout, which exercises the end-of-stream path.
std::string TinyV1Snapshot() { return CorpusFile("snapshot/valid-full.txt"); }
std::string LegacySnapshot() {
  return CorpusFile("snapshot/valid-legacy.txt");
}

// A valid one-cluster delta against TinyModel's content hash: the
// structure-aware seed for delta mutation.
const std::string& TinyDelta() {
  static const std::string* bytes = [] {
    std::ostringstream out;
    const Result<uint64_t> hash = TinyModel().ContentHash();
    EXPECT_TRUE(hash.ok());
    const size_t clusters[] = {0};
    EXPECT_TRUE(
        TinyModel().SaveDelta(&out, clusters, hash.ValueOr(0)).ok());
    return new std::string(out.str());
  }();
  return *bytes;
}

// A valid frame stream covering every wire frame type: the structure-
// aware seed for wire mutation.
std::string WireSeedStream() {
  using replicate::ArtifactKind;
  using replicate::EncodeFrame;
  using replicate::FrameType;
  using replicate::WireFrame;
  std::string out;
  WireFrame hello;
  hello.type = FrameType::kHello;
  hello.sequence = 4;
  hello.payload = replicate::kWireGreeting;
  out += EncodeFrame(hello);
  WireFrame subscribe;
  subscribe.type = FrameType::kSubscribe;
  subscribe.sequence = 2;
  out += EncodeFrame(subscribe);
  WireFrame full;
  full.type = FrameType::kArtifact;
  full.kind = ArtifactKind::kFull;
  full.sequence = 2;
  full.payload = "full-snapshot-bytes";
  out += EncodeFrame(full);
  WireFrame delta;
  delta.type = FrameType::kArtifact;
  delta.kind = ArtifactKind::kDelta;
  delta.sequence = 3;
  delta.base_hash = 0x1234abcdull;
  delta.payload = "delta-bytes";
  out += EncodeFrame(delta);
  WireFrame heartbeat;
  heartbeat.type = FrameType::kHeartbeat;
  heartbeat.sequence = 3;
  out += EncodeFrame(heartbeat);
  WireFrame eof;
  eof.type = FrameType::kEof;
  out += EncodeFrame(eof);
  return out;
}

std::string TinyCsv() {
  SyntheticConfig cfg;
  cfg.num_samples = 24;
  cfg.seed = 7;
  const Dataset d = GenerateImplicitBias(cfg).value();
  return ToCsv(DatasetToCsv(d, "label"));
}

std::vector<std::string> CorpusOrDie(const std::string& subdir) {
  Result<std::vector<std::string>> corpus =
      LoadCorpus(std::string(FALCC_CORPUS_DIR) + "/" + subdir);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  return corpus.ok() ? std::move(corpus).value() : std::vector<std::string>{};
}

TEST(FuzzCorpusTest, SnapshotCorpusReplaysClean) {
  const std::vector<std::string> corpus = CorpusOrDie("snapshot");
  ASSERT_FALSE(corpus.empty()) << "tests/corpus/snapshot is missing";
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Status st = FuzzSnapshotLoad(corpus[i]);
    EXPECT_TRUE(st.ok()) << "corpus input " << i << ": " << st.ToString();
  }
}

TEST(FuzzCorpusTest, DeltaCorpusReplaysClean) {
  // Delta findings replay against the deterministic tiny model. Entries
  // whose base hash no longer matches are still exercised — a clean
  // wrong-base rejection is inside the contract.
  const std::vector<std::string> corpus = CorpusOrDie("delta");
  ASSERT_FALSE(corpus.empty()) << "tests/corpus/delta is missing";
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Status st = testing::FuzzDeltaApply(TinyModel(), corpus[i]);
    EXPECT_TRUE(st.ok()) << "corpus input " << i << ": " << st.ToString();
  }
}

TEST(FuzzCorpusTest, CsvCorpusReplaysClean) {
  const std::vector<std::string> corpus = CorpusOrDie("csv");
  ASSERT_FALSE(corpus.empty()) << "tests/corpus/csv is missing";
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Status st = FuzzCsvParse(corpus[i]);
    EXPECT_TRUE(st.ok()) << "corpus input " << i << ": " << st.ToString();
  }
}

TEST(FuzzCorpusTest, WireCorpusReplaysClean) {
  const std::vector<std::string> corpus = CorpusOrDie("wire");
  ASSERT_FALSE(corpus.empty()) << "tests/corpus/wire is missing";
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Status st = FuzzWireFrame(corpus[i]);
    EXPECT_TRUE(st.ok()) << "corpus input " << i << ": " << st.ToString();
  }
}

TEST(FuzzCorpusTest, ValidSeedsPassTheContracts) {
  // The unmutated seeds themselves must satisfy the accept-side checks;
  // otherwise every smoke finding would be noise.
  EXPECT_TRUE(FuzzSnapshotLoad(TinySnapshot()).ok());
  EXPECT_TRUE(FuzzSnapshotLoad(TinyV1Snapshot()).ok());
  EXPECT_TRUE(FuzzSnapshotLoad(LegacySnapshot()).ok());
  EXPECT_TRUE(testing::FuzzDeltaApply(TinyModel(), TinyDelta()).ok());
  EXPECT_TRUE(FuzzCsvParse(TinyCsv()).ok());
  EXPECT_TRUE(FuzzWireFrame(WireSeedStream()).ok());
}

TEST(SnapshotRegressionTest, ZeroLengthSnapshotIsRejected) {
  const Result<FalccModel> r = testing::LoadFromString("");
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(r.status().message().empty());
}

TEST(SnapshotRegressionTest, GarbagePrefixIsRejected) {
  for (const std::string prefix :
       {std::string("garbage "), std::string("\x00\xff\x7f", 3),
        std::string("falcc-model-v2\n")}) {
    const Result<FalccModel> r =
        testing::LoadFromString(prefix + TinySnapshot());
    ASSERT_FALSE(r.ok()) << "prefix '" << prefix << "'";
    EXPECT_FALSE(r.status().message().empty());
  }
}

TEST(SnapshotRegressionTest, MidSectionTruncationsReturnDescriptiveErrors) {
  const std::string& bytes = TinySnapshot();
  // A cut anywhere strictly inside the mandatory sections must produce a
  // descriptive error, never an abort or a silently half-loaded model.
  for (const size_t denom : {16u, 8u, 4u, 3u, 2u}) {
    const std::string cut = bytes.substr(0, bytes.size() / denom);
    const Result<FalccModel> r = testing::LoadFromString(cut);
    ASSERT_FALSE(r.ok()) << "cut at " << cut.size();
    EXPECT_FALSE(r.status().message().empty()) << "cut at " << cut.size();
  }
}

TEST(SnapshotRegressionTest, CorruptedSectionIsNamedInTheError) {
  // Flipping one payload byte inside a v2 section must fail checksum
  // verification with the section's name and offset in the message —
  // incremental validation is the operator's first triage tool.
  const std::string& bytes = TinySnapshot();
  const size_t pool_payload = bytes.find("\nadaboost");
  ASSERT_NE(pool_payload, std::string::npos);
  std::string corrupt = bytes;
  corrupt[pool_payload + 1] ^= 0x20;
  const Result<FalccModel> r = testing::LoadFromString(corrupt);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("'pool'"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos)
      << r.status().message();
}

TEST(SnapshotRegressionTest, DeltaOnWrongBaseIsRejected) {
  // A delta names its base by content hash; applying it to any other
  // snapshot must fail cleanly, citing both hashes.
  const std::string& delta = TinyDelta();
  const Result<FalccModel> other = testing::LoadFromString(LegacySnapshot());
  ASSERT_TRUE(other.ok());
  const Result<FalccModel> applied = other.value().ApplyDeltaBytes(delta);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(applied.status().message().find("content hash"),
            std::string::npos)
      << applied.status().message();
}

TEST(SnapshotRegressionTest, DeltaFedToLoadIsRedirected) {
  // Load on a delta artifact cannot succeed (there is no base), but the
  // error must say what the input was and where it goes instead.
  const Result<FalccModel> r = testing::LoadFromString(TinyDelta());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("delta"), std::string::npos)
      << r.status().message();
}

TEST(FuzzSmokeTest, SnapshotLoad) {
  std::vector<std::string> seeds = {TinySnapshot(), TinyV1Snapshot(),
                                    LegacySnapshot()};
  for (std::string& input : CorpusOrDie("snapshot")) {
    seeds.push_back(std::move(input));
  }
  FuzzOptions options;
  options.seed = 0x5eedf00d;
  options.iterations = FuzzIterationsFromEnv(2000);
  options.failure_dir = ::testing::TempDir() + "/falcc-fuzz-snapshot";
  FuzzStats stats;
  const Status st = RunFuzz(seeds, FuzzSnapshotLoad, options, &stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.iterations, options.iterations);
}

TEST(FuzzSmokeTest, DeltaApply) {
  std::vector<std::string> seeds = {TinyDelta()};
  for (std::string& input : CorpusOrDie("delta")) {
    seeds.push_back(std::move(input));
  }
  FuzzOptions options;
  options.seed = 0xde17af00d;
  options.iterations = FuzzIterationsFromEnv(500);
  options.failure_dir = ::testing::TempDir() + "/falcc-fuzz-delta";
  FuzzStats stats;
  const FalccModel& base = TinyModel();
  const Status st = RunFuzz(
      seeds,
      [&base](const std::string& data) {
        return testing::FuzzDeltaApply(base, data);
      },
      options, &stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.iterations, options.iterations);
}

TEST(FuzzSmokeTest, WireFrame) {
  std::vector<std::string> seeds = {WireSeedStream()};
  for (std::string& input : CorpusOrDie("wire")) {
    seeds.push_back(std::move(input));
  }
  FuzzOptions options;
  options.seed = 0x3142f00d;
  options.iterations = FuzzIterationsFromEnv(2000);
  options.failure_dir = ::testing::TempDir() + "/falcc-fuzz-wire";
  FuzzStats stats;
  const Status st = RunFuzz(seeds, FuzzWireFrame, options, &stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.iterations, options.iterations);
}

TEST(FuzzSmokeTest, CsvParse) {
  std::vector<std::string> seeds = {TinyCsv()};
  for (std::string& input : CorpusOrDie("csv")) {
    seeds.push_back(std::move(input));
  }
  FuzzOptions options;
  options.seed = 0xc57f00d;
  options.iterations = FuzzIterationsFromEnv(2000);
  options.failure_dir = ::testing::TempDir() + "/falcc-fuzz-csv";
  FuzzStats stats;
  const Status st = RunFuzz(seeds, FuzzCsvParse, options, &stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.iterations, options.iterations);
}

}  // namespace
}  // namespace falcc
