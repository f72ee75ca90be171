// ModelForge / ModelLoader / ModelValidator / ModelMonitor /
// ModelPreprocessor lifecycle tests.

#include <gtest/gtest.h>

#include <filesystem>

#include "bytecard/inference_engine.h"
#include "bytecard/model_forge.h"
#include "bytecard/model_loader.h"
#include "bytecard/model_monitor.h"
#include "bytecard/model_preprocessor.h"
#include "bytecard/model_validator.h"
#include "test_util.h"
#include "workload/datagen.h"

namespace bytecard {
namespace {

namespace fs = std::filesystem;
using testutil::TempDir;

// --- ModelForge -----------------------------------------------------------------

TEST(ModelForgeTest, TrainAndPublishBn) {
  TempDir dir("forge_bn");
  auto db = testutil::BuildToyDatabase(3000);
  ModelForgeService forge(dir.str());

  cardest::BnTrainOptions options;
  auto artifact = forge.TrainTableBn(*db->FindTable("fact").value(), options);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(artifact.value().kind, "bn");
  EXPECT_EQ(artifact.value().name, "fact");
  EXPECT_GT(artifact.value().size_bytes, 0);
  EXPECT_GE(artifact.value().train_seconds, 0.0);
  EXPECT_TRUE(fs::exists(artifact.value().path));

  // The artifact deserializes into a valid model.
  auto bytes = ReadArtifactBytes(artifact.value().path);
  ASSERT_TRUE(bytes.ok());
  BufferReader reader(bytes.value());
  auto model = cardest::BayesNetModel::Deserialize(&reader);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model.value().ValidateStructure().ok());
}

TEST(ModelForgeTest, TimestampsStrictlyIncrease) {
  TempDir dir("forge_ts");
  auto db = testutil::BuildToyDatabase(1000);
  ModelForgeService forge(dir.str());
  cardest::BnTrainOptions options;
  auto a1 = forge.TrainTableBn(*db->FindTable("fact").value(), options);
  auto a2 = forge.TrainTableBn(*db->FindTable("fact").value(), options);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  EXPECT_GT(a2.value().timestamp, a1.value().timestamp);
}

TEST(ModelForgeTest, ClockResumesAcrossRestart) {
  TempDir dir("forge_restart");
  auto db = testutil::BuildToyDatabase(1000);
  int64_t first_ts = 0;
  {
    ModelForgeService forge(dir.str());
    cardest::BnTrainOptions options;
    auto artifact = forge.TrainTableBn(*db->FindTable("fact").value(), options);
    ASSERT_TRUE(artifact.ok());
    first_ts = artifact.value().timestamp;
  }
  ModelForgeService forge2(dir.str());
  cardest::BnTrainOptions options;
  auto artifact = forge2.TrainTableBn(*db->FindTable("dim").value(), options);
  ASSERT_TRUE(artifact.ok());
  EXPECT_GT(artifact.value().timestamp, first_ts);
}

TEST(ModelForgeTest, RbxTrainAndFineTunePublish) {
  TempDir dir("forge_rbx");
  ModelForgeService forge(dir.str());
  cardest::RbxTrainOptions options;
  options.population_sizes = {10000};
  options.sample_rates = {0.05};
  options.replicas = 1;
  options.epochs = 5;
  auto artifact = forge.TrainRbx(options);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(artifact.value().kind, "rbx");

  Rng rng(1);
  std::vector<cardest::NdvTrainingExample> problematic = {
      cardest::MakeSyntheticExample(4, 10000, 0.05, &rng)};
  auto tuned = forge.FineTuneRbx(artifact.value(), problematic, 7);
  ASSERT_TRUE(tuned.ok()) << tuned.status().ToString();
  EXPECT_GT(tuned.value().timestamp, artifact.value().timestamp);
}

// --- ModelLoader -----------------------------------------------------------------

TEST(ModelLoaderTest, PicksOnlyNewestAndOnlyOnce) {
  TempDir dir("loader");
  auto db = testutil::BuildToyDatabase(500);
  ModelForgeService forge(dir.str());
  cardest::BnTrainOptions options;
  ASSERT_TRUE(forge.TrainTableBn(*db->FindTable("fact").value(), options).ok());
  ASSERT_TRUE(forge.TrainTableBn(*db->FindTable("fact").value(), options).ok());
  ASSERT_TRUE(forge.TrainTableBn(*db->FindTable("dim").value(), options).ok());

  ModelLoader loader(dir.str());
  auto first = loader.PollOnce();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().size(), 2u);  // fact (newest of 2) + dim
  // Polling alone does not advance the high-water marks; the same
  // candidates are offered again until they are committed.
  EXPECT_EQ(loader.LoadedTimestamp("bn", "fact"), 0);
  auto repoll = loader.PollOnce();
  ASSERT_TRUE(repoll.ok());
  EXPECT_EQ(repoll.value().size(), 2u);

  for (const auto& model : first.value()) {
    loader.CommitLoaded(model.kind, model.name, model.timestamp);
  }
  EXPECT_GT(loader.LoadedTimestamp("bn", "fact"), 0);

  // Second poll with nothing new: empty.
  auto second = loader.PollOnce();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().empty());

  // A fresher artifact is picked up on the next poll.
  ASSERT_TRUE(forge.TrainTableBn(*db->FindTable("fact").value(), options).ok());
  auto third = loader.PollOnce();
  ASSERT_TRUE(third.ok());
  ASSERT_EQ(third.value().size(), 1u);
  EXPECT_EQ(third.value()[0].name, "fact");

  // Commit never moves a mark backwards.
  loader.CommitLoaded("bn", "fact", third.value()[0].timestamp);
  const int64_t committed = loader.LoadedTimestamp("bn", "fact");
  loader.CommitLoaded("bn", "fact", 0);
  EXPECT_EQ(loader.LoadedTimestamp("bn", "fact"), committed);
}

TEST(ModelLoaderTest, EmptyStore) {
  TempDir dir("loader_empty");
  ModelLoader loader(dir.str());
  auto loaded = loader.PollOnce();
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().empty());
  EXPECT_EQ(loader.LoadedTimestamp("bn", "x"), 0);
}

// --- ModelValidator ---------------------------------------------------------------

std::unique_ptr<BnCountEngine> MakeLoadedEngine(
    const minihouse::Table& table) {
  cardest::BnTrainOptions options;
  auto model = cardest::BayesNetModel::Train(table, options);
  BC_CHECK_OK(model.status());
  BufferWriter writer;
  model.value().Serialize(&writer);
  auto engine = std::make_unique<BnCountEngine>();
  BC_CHECK_OK(engine->LoadModel(writer.buffer()));
  return engine;
}

TEST(ModelValidatorTest, AdmitsHealthyModel) {
  auto db = testutil::BuildToyDatabase(1000);
  auto engine = MakeLoadedEngine(*db->FindTable("fact").value());
  ModelValidator validator;
  EXPECT_TRUE(validator.Admit(*engine).ok());
}

TEST(ModelValidatorTest, SizeCheckerRejectsOversized) {
  ModelValidator validator;
  EXPECT_TRUE(validator.CheckModelSize(ModelValidator::kMaxModelBytes).ok());
  EXPECT_EQ(validator.CheckModelSize(ModelValidator::kMaxModelBytes + 1).code(),
            StatusCode::kResourceExhausted);
}

// --- ModelMonitor -----------------------------------------------------------------

TEST(ModelMonitorTest, HealthyModelPasses) {
  auto db = testutil::BuildToyDatabase(20000);
  const minihouse::Table* fact = db->FindTable("fact").value();
  cardest::BnTrainOptions options;
  options.max_train_rows = 0;
  auto model = cardest::BayesNetModel::Train(*fact, options);
  ASSERT_TRUE(model.ok());
  cardest::BnInferenceContext context(&model.value());

  ModelMonitor monitor;
  auto report = monitor.EvaluateBnModel(*fact, context);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().healthy);
  EXPECT_GE(report.value().median_qerror, 1.0);
  EXPECT_LE(report.value().median_qerror, report.value().p90_qerror);
  EXPECT_LE(report.value().p90_qerror, report.value().max_qerror);
  EXPECT_TRUE(monitor.IsHealthy("fact"));
}

TEST(ModelMonitorTest, MismatchedModelFlagged) {
  // Train on dim but probe against fact: estimates are garbage relative to
  // fact's distribution, so the monitor must flag it with a tight threshold.
  auto db = testutil::BuildToyDatabase(20000);
  const minihouse::Table* fact = db->FindTable("fact").value();
  const minihouse::Table* dim = db->FindTable("dim").value();
  cardest::BnTrainOptions options;
  auto model = cardest::BayesNetModel::Train(*dim, options);
  ASSERT_TRUE(model.ok());
  cardest::BnInferenceContext context(&model.value());

  ModelMonitor::Options monitor_options;
  monitor_options.qerror_threshold = 3.0;
  ModelMonitor monitor(monitor_options);
  auto report = monitor.EvaluateBnModel(*fact, context);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().healthy);
  EXPECT_FALSE(monitor.IsHealthy("fact"));
}

TEST(ModelMonitorTest, UnknownTableDefaultsHealthy) {
  ModelMonitor monitor;
  EXPECT_TRUE(monitor.IsHealthy("never_seen"));
  monitor.SetHealth("t", false);
  EXPECT_FALSE(monitor.IsHealthy("t"));
}

TEST(ModelMonitorTest, ProbesHaveAnchoredPredicates) {
  auto db = testutil::BuildToyDatabase(5000);
  const minihouse::Table* fact = db->FindTable("fact").value();
  ModelMonitor monitor;
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const minihouse::Conjunction probe = monitor.GenerateProbe(*fact, &rng);
    EXPECT_GE(probe.size(), 1u);
    EXPECT_LE(probe.size(), 3u);
    // Probes must have non-zero true cardinality reasonably often; at
    // minimum they are well-formed.
    for (const auto& pred : probe) {
      EXPECT_GE(pred.column, 0);
      EXPECT_LT(pred.column, fact->num_columns());
    }
  }
}

// --- ModelPreprocessor -------------------------------------------------------------

TEST(ModelPreprocessorTest, TypeMapping) {
  EXPECT_EQ(ModelPreprocessor::MapType(minihouse::DataType::kInt64),
            minihouse::MlType::kCategorical);
  EXPECT_EQ(ModelPreprocessor::MapType(minihouse::DataType::kString),
            minihouse::MlType::kCategorical);
  EXPECT_EQ(ModelPreprocessor::MapType(minihouse::DataType::kFloat64),
            minihouse::MlType::kContinuous);
  EXPECT_EQ(ModelPreprocessor::MapType(minihouse::DataType::kArray),
            minihouse::MlType::kUnsupported);
}

TEST(ModelPreprocessorTest, ColumnSelectionExcludesComplexTypes) {
  auto db = workload::GenerateAeolus(0.05, 3).value();
  const minihouse::Table* events = db->FindTable("ad_events").value();
  const std::vector<int> selected =
      ModelPreprocessor::SelectedColumns(*events);
  // "tags" is an Array column and must be excluded.
  const int tags = events->FindColumnIndex("tags");
  ASSERT_GE(tags, 0);
  for (int c : selected) EXPECT_NE(c, tags);
  EXPECT_EQ(selected.size(),
            static_cast<size_t>(events->num_columns()) - 1);
}

TEST(ModelPreprocessorTest, JoinPatternCollectionMergesAcrossQueries) {
  auto db = testutil::BuildToyDatabase(200);
  minihouse::BoundQuery q1 = testutil::ToyJoinQuery(*db);
  minihouse::BoundQuery q2 = testutil::ToyJoinQuery(*db);
  const auto patterns = ModelPreprocessor::CollectJoinPatterns({q1, q2});
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_EQ(patterns[0].size(), 2u);  // {dim.id, fact.dim_id}
}

TEST(ModelPreprocessorTest, DisjointPatternsStaySeparate) {
  auto db = testutil::BuildToyDatabase(200);
  minihouse::BoundQuery q1 = testutil::ToyJoinQuery(*db);
  // A second, artificial pattern joining different columns.
  minihouse::BoundQuery q2 = testutil::ToyJoinQuery(*db);
  q2.joins[0].left_column = 1;
  q2.joins[0].right_column = 1;
  const auto patterns = ModelPreprocessor::CollectJoinPatterns({q1, q2});
  EXPECT_EQ(patterns.size(), 2u);
}

}  // namespace
}  // namespace bytecard
