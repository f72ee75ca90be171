// The incremental model-maintenance subsystem (DESIGN.md §13): ingest-delta
// extraction, BN count-page delta updates vs full retrains, FactorJoin
// per-bucket histogram merges, the maintainer's end-to-end publish loop
// through the ByteCard facade, and the ingest-vs-query-vs-lifecycle races.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "bytecard/bytecard.h"
#include "bytecard/data_ingestor.h"
#include "bytecard/incremental/bn_delta.h"
#include "bytecard/incremental/fj_delta.h"
#include "bytecard/incremental/incremental_maintainer.h"
#include "common/serde.h"
#include "minihouse/executor.h"
#include "test_util.h"

namespace bytecard {
namespace {

using minihouse::CompareOp;

minihouse::ColumnPredicate Pred(int column, CompareOp op, int64_t operand) {
  minihouse::ColumnPredicate pred;
  pred.column = column;
  pred.op = op;
  pred.operand = operand;
  return pred;
}

// --- IngestDelta ----------------------------------------------------------------

TEST(IngestDeltaTest, BuildSummarizesBatchInOnePass) {
  std::vector<std::vector<int64_t>> batch(2);
  batch[0] = {5, 3, 5, 9};
  batch[1] = {};  // kArray column: no scalar values collected
  const incremental::IngestDelta delta = incremental::IngestDelta::Build(
      "t", /*epoch=*/7, /*first_row=*/100, /*total_rows=*/104,
      std::move(batch));

  EXPECT_EQ(delta.table, "t");
  EXPECT_EQ(delta.epoch, 7u);
  EXPECT_EQ(delta.first_row, 100);
  EXPECT_EQ(delta.rows_added, 4);
  EXPECT_EQ(delta.total_rows, 104);
  ASSERT_EQ(delta.columns.size(), 2u);

  const incremental::ColumnDelta& c0 = delta.columns[0];
  EXPECT_TRUE(c0.has_values);
  EXPECT_EQ(c0.min, 3);
  EXPECT_EQ(c0.max, 9);
  const std::vector<std::pair<int64_t, int64_t>> expected = {
      {3, 1}, {5, 2}, {9, 1}};
  EXPECT_EQ(c0.value_counts, expected);
  EXPECT_NEAR(c0.hll.Estimate(), 3.0, 0.5);

  EXPECT_FALSE(delta.columns[1].has_values);
  EXPECT_TRUE(delta.columns[1].value_counts.empty());
}

TEST(IngestDeltaTest, IngestorEmitsDeltaButDropsItFromTheLog) {
  auto db = testutil::BuildToyDatabase(1000, 17);
  DataIngestor ingestor(db.get());
  Rng rng(5);
  auto event = ingestor.IngestStationaryBatch("fact", 200, &rng);
  ASSERT_TRUE(event.ok());

  // The observer-visible event carries the delta...
  ASSERT_NE(event.value().delta, nullptr);
  const incremental::IngestDelta& delta = *event.value().delta;
  EXPECT_EQ(delta.table, "fact");
  EXPECT_EQ(delta.first_row, 1000);
  EXPECT_EQ(delta.rows_added, 200);
  EXPECT_EQ(delta.total_rows, 1200);
  ASSERT_EQ(delta.batch.size(), 3u);
  for (const auto& column : delta.batch) EXPECT_EQ(column.size(), 200u);
  // ...and its summaries resample the base distribution (value in [0, 50)).
  EXPECT_GE(delta.columns[1].min, 0);
  EXPECT_LT(delta.columns[1].max, 50);

  // The consumption log keeps only the lightweight event.
  ASSERT_EQ(ingestor.events().size(), 1u);
  EXPECT_EQ(ingestor.events()[0].delta, nullptr);
  EXPECT_EQ(ingestor.events()[0].rows_added, 200);
}

// --- BnCountPage ----------------------------------------------------------------

cardest::BayesNetModel TrainFactBn(const minihouse::Table& fact) {
  cardest::BnTrainOptions options;
  options.columns = {0, 1, 2};
  options.max_bins = 32;
  auto model = cardest::BayesNetModel::Train(fact, options);
  BC_CHECK_OK(model.status());
  return std::move(model).value();
}

double BnCount(const cardest::BayesNetModel& model,
               const minihouse::Conjunction& filters) {
  cardest::BnInferenceContext context(&model);
  return context.EstimateCount(filters);
}

TEST(BnDeltaTest, ZeroBatchPageReproducesTheBaseModel) {
  auto db = testutil::BuildToyDatabase(2000, 31);
  const minihouse::Table& fact = *db->FindTable("fact").value();
  const cardest::BayesNetModel base = TrainFactBn(fact);

  auto page = incremental::BnCountPage::FromModel(base, 0.02);
  ASSERT_TRUE(page.ok());
  const cardest::BayesNetModel round = page.value().ToModel();

  EXPECT_EQ(round.row_count(), base.row_count());
  EXPECT_TRUE(round.ValidateStructure().ok());
  for (const auto& filters :
       {minihouse::Conjunction{Pred(1, CompareOp::kLt, 10)},
        minihouse::Conjunction{Pred(1, CompareOp::kLt, 10),
                               Pred(2, CompareOp::kEq, 0)},
        minihouse::Conjunction{Pred(0, CompareOp::kLt, 20)}}) {
    const double b = BnCount(base, filters);
    const double r = BnCount(round, filters);
    // Unfold + renormalize adds at most one extra alpha of smoothing mass.
    EXPECT_NEAR(r, b, 0.05 * b + 1.0);
  }
}

TEST(BnDeltaTest, StationaryDeltaTracksAFullRetrain) {
  auto db = testutil::BuildToyDatabase(2000, 47);
  minihouse::Table* fact = db->FindMutableTable("fact").value();
  const cardest::BayesNetModel base = TrainFactBn(*fact);

  auto page = incremental::BnCountPage::FromModel(base, 0.02);
  ASSERT_TRUE(page.ok());

  DataIngestor ingestor(db.get());
  Rng rng(7);
  auto event = ingestor.IngestStationaryBatch("fact", 1000, &rng);
  ASSERT_TRUE(event.ok());
  ASSERT_TRUE(page.value().ApplyBatch(*event.value().delta).ok());
  EXPECT_EQ(page.value().rows_absorbed(), 1000);

  const cardest::BayesNetModel updated = page.value().ToModel();
  const cardest::BayesNetModel retrained = TrainFactBn(*fact);
  EXPECT_EQ(updated.row_count(), 3000);
  EXPECT_EQ(retrained.row_count(), 3000);

  for (const auto& filters :
       {minihouse::Conjunction{Pred(1, CompareOp::kLt, 10)},
        minihouse::Conjunction{Pred(1, CompareOp::kLt, 10),
                               Pred(2, CompareOp::kEq, 0)},
        minihouse::Conjunction{Pred(2, CompareOp::kEq, 3)}}) {
    const double delta_est = BnCount(updated, filters);
    const double retrain_est = BnCount(retrained, filters);
    ASSERT_GT(retrain_est, 0.0);
    const double ratio = delta_est / retrain_est;
    EXPECT_GT(ratio, 1.0 / 1.3) << "delta " << delta_est << " vs retrain "
                                << retrain_est;
    EXPECT_LT(ratio, 1.3);
  }
}

TEST(BnDeltaTest, RejectsMismatchedDeltas) {
  auto db = testutil::BuildToyDatabase(500, 3);
  const minihouse::Table& fact = *db->FindTable("fact").value();
  const cardest::BayesNetModel base = TrainFactBn(fact);
  auto page = incremental::BnCountPage::FromModel(base, 0.02);
  ASSERT_TRUE(page.ok());

  // Wrong table.
  incremental::IngestDelta wrong = incremental::IngestDelta::Build(
      "dim", 1, 500, 510, {{1, 2}, {3, 4}, {5, 6}});
  EXPECT_FALSE(page.value().ApplyBatch(wrong).ok());

  // Missing values for a modelled column.
  incremental::IngestDelta missing = incremental::IngestDelta::Build(
      "fact", 1, 500, 502, {{1, 2}, {3, 4}, {}});
  EXPECT_FALSE(page.value().ApplyBatch(missing).ok());

  // Invalid alpha / empty model guards.
  EXPECT_FALSE(incremental::BnCountPage::FromModel(base, 0.0).ok());
  EXPECT_FALSE(
      incremental::BnCountPage::FromModel(cardest::BayesNetModel(), 0.02)
          .ok());
}

// --- FjMaintenanceState ---------------------------------------------------------

TEST(FjDeltaTest, StationaryMergeMatchesRetrainCountsExactly) {
  auto db = testutil::BuildToyDatabase(2000, 61);
  const std::vector<std::vector<cardest::JoinKeyRef>> key_groups = {
      {{"fact", 0}, {"dim", 0}}};
  auto model = cardest::FactorJoinModel::Train(*db, key_groups, 10);
  ASSERT_TRUE(model.ok());

  auto state =
      incremental::FjMaintenanceState::Seed(model.value(), *db, 12);
  ASSERT_TRUE(state.ok());

  DataIngestor ingestor(db.get());
  Rng rng(9);
  auto event = ingestor.IngestStationaryBatch("fact", 1000, &rng);
  ASSERT_TRUE(event.ok());
  auto touched = state.value().ApplyBatch(*event.value().delta);
  ASSERT_TRUE(touched.ok());
  EXPECT_TRUE(touched.value());

  // Ground truth under the *frozen* bucket boundaries (a fresh Train would
  // recompute equi-height boundaries on the grown table and shuffle rows
  // between buckets): recount the grown key column exactly.
  const cardest::FactorJoinModel& maintained = state.value().model();
  const int group = maintained.GroupOf("fact", 0);
  ASSERT_GE(group, 0);
  const cardest::JoinBucketizer& buckets = maintained.groups()[group].buckets;
  const minihouse::Column& keys = db->FindTable("fact").value()->column(0);
  std::vector<std::map<int64_t, int64_t>> exact(buckets.num_buckets());
  for (int64_t i = 0; i < keys.num_rows(); ++i) {
    const int64_t v = keys.NumericAt(i);
    ++exact[buckets.BucketOf(v)][v];
  }

  const cardest::BucketStats* merged = maintained.FindStats("fact", 0);
  ASSERT_NE(merged, nullptr);
  ASSERT_EQ(merged->count.size(), exact.size());
  for (size_t b = 0; b < merged->count.size(); ++b) {
    double rows = 0.0, max_freq = 0.0;
    for (const auto& [value, freq] : exact[b]) {
      rows += static_cast<double>(freq);
      max_freq = std::max(max_freq, static_cast<double>(freq));
    }
    const double distinct = static_cast<double>(exact[b].size());
    // Per-bucket row counts merge exactly.
    EXPECT_DOUBLE_EQ(merged->count[b], rows) << "bucket " << b;
    // Summed maxima upper-bound the true max frequency, bounded by count.
    EXPECT_GE(merged->max_freq[b], max_freq) << "bucket " << b;
    EXPECT_LE(merged->max_freq[b], std::max(rows, 1.0)) << "bucket " << b;
    // HLL-tracked distinct stays within a loose band of the exact value.
    if (distinct > 0.0) {
      EXPECT_GT(merged->distinct[b], distinct * 0.8) << "bucket " << b;
      EXPECT_LT(merged->distinct[b], distinct * 1.2 + 2.0) << "bucket " << b;
    }
  }

  // The serialized maintained model round-trips through the loader path.
  const std::string bytes = state.value().SerializeModel();
  BufferReader reader(bytes);
  EXPECT_TRUE(cardest::FactorJoinModel::Deserialize(&reader).ok());
}

TEST(FjDeltaTest, BatchOnUnmodelledTableIsANoop) {
  auto db = testutil::BuildToyDatabase(500, 5);
  const std::vector<std::vector<cardest::JoinKeyRef>> key_groups = {
      {{"fact", 0}, {"dim", 0}}};
  auto model = cardest::FactorJoinModel::Train(*db, key_groups, 8);
  ASSERT_TRUE(model.ok());
  auto state = incremental::FjMaintenanceState::Seed(model.value(), *db, 12);
  ASSERT_TRUE(state.ok());

  incremental::IngestDelta other = incremental::IngestDelta::Build(
      "elsewhere", 1, 0, 3, {{1, 2, 3}});
  auto touched = state.value().ApplyBatch(other);
  ASSERT_TRUE(touched.ok());
  EXPECT_FALSE(touched.value());
}

// --- Maintainer through the facade ----------------------------------------------

class IncrementalMaintainerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new testutil::TempDir("incremental");
    db_ = testutil::BuildToyDatabase(8000, 113).release();

    ByteCard::Options options;
    options.rbx.population_sizes = {8000};
    options.rbx.sample_rates = {0.02, 0.05};
    options.rbx.replicas = 2;
    options.rbx.epochs = 30;
    auto bc = ByteCard::Bootstrap(
        *db_, {testutil::ToyJoinQuery(*db_)}, dir_->str(), options);
    BC_CHECK_OK(bc.status());
    bytecard_ = std::move(bc).value().release();
    bytecard_->EnableFeedback();
    BC_CHECK_OK(bytecard_->EnableIncrementalMaintenance(*db_));

    ingestor_ = new DataIngestor(db_);
    ingestor_->AddObserver(bytecard_->feedback_manager());
    ingestor_->AddObserver(bytecard_->incremental_maintainer());
  }

  static void TearDownTestSuite() {
    delete ingestor_;
    delete bytecard_;
    delete db_;
    delete dir_;
  }

  static testutil::TempDir* dir_;
  static minihouse::Database* db_;
  static ByteCard* bytecard_;
  static DataIngestor* ingestor_;
};

testutil::TempDir* IncrementalMaintainerTest::dir_ = nullptr;
minihouse::Database* IncrementalMaintainerTest::db_ = nullptr;
ByteCard* IncrementalMaintainerTest::bytecard_ = nullptr;
DataIngestor* IncrementalMaintainerTest::ingestor_ = nullptr;

TEST_F(IncrementalMaintainerTest, EnableIsIdempotent) {
  incremental::IncrementalMaintainer* maintainer =
      bytecard_->incremental_maintainer();
  ASSERT_NE(maintainer, nullptr);
  ASSERT_TRUE(bytecard_->EnableIncrementalMaintenance(*db_).ok());
  EXPECT_EQ(bytecard_->incremental_maintainer(), maintainer);
}

TEST_F(IncrementalMaintainerTest, BatchPublishesEpochStampedSuccessor) {
  const uint64_t version_before = bytecard_->SnapshotVersion();
  EXPECT_EQ(bytecard_->snapshot()->ingest_epoch(), 0u);

  Rng rng(21);
  auto event = ingestor_->IngestStationaryBatch("fact", 800, &rng);
  ASSERT_TRUE(event.ok());

  auto snapshot = bytecard_->snapshot();
  EXPECT_GT(snapshot->version(), version_before);
  EXPECT_EQ(snapshot->ingest_epoch(),
            static_cast<uint64_t>(event.value().offset));

  // The delta-updated BN's row count tracks the grown table.
  const minihouse::Table& fact = *db_->FindTable("fact").value();
  const cardest::BayesNetModel* bn = snapshot->bn_model("fact");
  ASSERT_NE(bn, nullptr);
  EXPECT_EQ(bn->row_count(), fact.num_rows());

  // The FactorJoin bucket histograms absorbed the batch: per-bucket counts
  // sum to the grown key-column row count.
  ASSERT_NE(snapshot->fj_engine(), nullptr);
  const cardest::BucketStats* stats =
      snapshot->fj_engine()->model().FindStats("fact", 0);
  ASSERT_NE(stats, nullptr);
  double total = 0.0;
  for (double c : stats->count) total += c;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(fact.num_rows()));

  const incremental::IncrementalStats mstats =
      bytecard_->incremental_maintainer()->stats();
  EXPECT_GE(mstats.batches_applied, 1);
  EXPECT_GE(mstats.rows_absorbed, 800);
  EXPECT_GE(mstats.bn_updates, 1);
  EXPECT_GE(mstats.fj_updates, 1);
  EXPECT_GE(mstats.ndv_merges, 1);
  EXPECT_GE(mstats.snapshots_published, 1);
}

TEST_F(IncrementalMaintainerTest, UnfilteredNdvServedByMergedSketch) {
  // Self-contained: the sketch catalog rides on delta publishes, so ingest a
  // batch here (ctest runs every test in its own process).
  Rng rng(27);
  ASSERT_TRUE(ingestor_->IngestStationaryBatch("fact", 200, &rng).ok());

  auto snapshot = bytecard_->snapshot();
  ASSERT_NE(snapshot->ndv_sketches(), nullptr);
  EXPECT_GT(snapshot->ndv_sketches()->size(), 0u);

  // fact.value is truly 50 distinct, before and after stationary batches;
  // the HLL estimate is far tighter than the RBX band the facade test pins.
  const minihouse::Table& fact = *db_->FindTable("fact").value();
  const double ndv = bytecard_->EstimateColumnNdv(fact, 1, {});
  EXPECT_GT(ndv, 42.0);
  EXPECT_LT(ndv, 60.0);

  // Filtered NDV questions still take the RBX path (sketches cannot see
  // predicates), so they keep returning something positive and bounded.
  const double filtered = bytecard_->EstimateColumnNdv(
      fact, 1, {Pred(1, CompareOp::kLt, 10)});
  EXPECT_GT(filtered, 0.0);
  EXPECT_LE(filtered, static_cast<double>(fact.num_rows()));
}

TEST_F(IncrementalMaintainerTest, FullRetrainResetsDeltaStateKeepsEpoch) {
  // Establish an ingest high-water mark of our own (tests run isolated
  // under ctest) so the epoch-inheritance assertion below has teeth.
  Rng seed_rng(29);
  ASSERT_TRUE(ingestor_->IngestStationaryBatch("fact", 300, &seed_rng).ok());
  const uint64_t epoch_before = bytecard_->snapshot()->ingest_epoch();
  ASSERT_GT(epoch_before, 0u);
  const int64_t resets_before =
      bytecard_->incremental_maintainer()->stats().resets;

  const minihouse::Table& fact = *db_->FindTable("fact").value();
  ASSERT_TRUE(bytecard_->RetrainTable(fact).ok());
  auto applied = bytecard_->RefreshModels();
  ASSERT_TRUE(applied.ok());
  ASSERT_GE(applied.value(), 1);

  // The BN count page was dropped (next delta re-unfolds from the fresh
  // model) and the successor inherited the ingest high-water mark.
  EXPECT_GT(bytecard_->incremental_maintainer()->stats().resets,
            resets_before);
  EXPECT_EQ(bytecard_->snapshot()->ingest_epoch(), epoch_before);
  EXPECT_TRUE(bytecard_->snapshot()->IsHealthy("fact"));

  // The next batch keeps maintaining from the retrained base.
  Rng rng(33);
  ASSERT_TRUE(ingestor_->IngestStationaryBatch("fact", 400, &rng).ok());
  EXPECT_EQ(bytecard_->snapshot()->bn_model("fact")->row_count(),
            db_->FindTable("fact").value()->num_rows());
}

TEST_F(IncrementalMaintainerTest, DemotedTableSkipsBnDeltaNotFjOrNdv) {
  bytecard_->SetTableHealth("fact", false);
  const incremental::IncrementalStats before =
      bytecard_->incremental_maintainer()->stats();

  Rng rng(41);
  ASSERT_TRUE(ingestor_->IngestStationaryBatch("fact", 300, &rng).ok());

  const incremental::IncrementalStats after =
      bytecard_->incremental_maintainer()->stats();
  EXPECT_EQ(after.bn_updates, before.bn_updates);  // unhealthy: no BN delta
  EXPECT_GT(after.fj_updates, before.fj_updates);
  EXPECT_GT(after.ndv_merges, before.ndv_merges);

  bytecard_->SetTableHealth("fact", true);
}

TEST_F(IncrementalMaintainerTest, FeedbackInvalidationScopedToIngestedTable) {
  feedback::FeedbackManager* manager = bytecard_->feedback_manager();
  ASSERT_NE(manager, nullptr);
  manager->cache().Put("fp:fact", 123.0, {"fact"});
  manager->cache().Put("fp:dim", 45.0, {"dim"});

  Rng rng(55);
  ASSERT_TRUE(ingestor_->IngestStationaryBatch("fact", 200, &rng).ok());

  double actual = 0.0;
  // The grown table's entry is stale; the untouched table's entry survives
  // the delta publish (no wholesale flush on incremental publishes).
  EXPECT_FALSE(manager->cache().Lookup("fp:fact", &actual));
  EXPECT_TRUE(manager->cache().Lookup("fp:dim", &actual));
  EXPECT_DOUBLE_EQ(actual, 45.0);
  EXPECT_GT(manager->cache().TableEpoch("fact"), 0u);
  EXPECT_EQ(manager->cache().TableEpoch("dim"), 0u);
}

// --- Races: ingest vs query streams vs lifecycle --------------------------------

TEST(IncrementalConcurrencyTest, IngestRacesQueriesAndLifecycle) {
  const testutil::TempDir tmp("incremental_race");
  const std::string& dir = tmp.str();
  auto db = testutil::BuildToyDatabase(4000, 211);

  ByteCard::Options options;
  options.rbx.population_sizes = {4000};
  options.rbx.sample_rates = {0.02, 0.05};
  options.rbx.replicas = 2;
  options.rbx.epochs = 30;
  auto bc_result =
      ByteCard::Bootstrap(*db, {testutil::ToyJoinQuery(*db)}, dir, options);
  ASSERT_TRUE(bc_result.ok());
  std::unique_ptr<ByteCard> bc = std::move(bc_result).value();
  bc->EnableFeedback();
  ASSERT_TRUE(bc->EnableIncrementalMaintenance(*db).ok());

  DataIngestor ingestor(db.get());
  ingestor.AddObserver(bc->feedback_manager());
  ingestor.AddObserver(bc->incremental_maintainer());

  // Scheduler streams: planning and admission run on the submitting thread
  // while batches append, with both lanes in use.
  minihouse::SchedulerOptions serving;
  serving.optimizer.max_dop = 2;
  serving.heavy_rows_threshold = 1000.0;
  bc->StartServing(serving);

  constexpr int kQueryThreads = 8;
  constexpr int kServingThreads = 4;
  constexpr int kQueriesPerThread = 25;
  constexpr int kBatches = 6;
  std::atomic<int> failures{0};
  std::atomic<int> nonmonotonic{0};

  auto random_query = [&](Rng* rng) {
    minihouse::BoundQuery query = testutil::ToyJoinQuery(*db);
    if (rng->Uniform(2) == 0) {
      query.tables[0].filters.push_back(Pred(
          1, CompareOp::kLt, static_cast<int64_t>(1 + rng->Uniform(49))));
    }
    return query;
  };

  std::vector<std::thread> threads;
  threads.reserve(kQueryThreads + kServingThreads + 1);
  for (int t = 0; t < kServingThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(2000 + t);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        auto result = bc->Wait(bc->Submit(random_query(&rng)));
        if (!result.ok() || result.value().ScalarCount() <= 0) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&, t] {
      minihouse::Optimizer optimizer;
      Rng rng(1000 + t);
      uint64_t last_version = 0;
      for (int i = 0; i < kQueriesPerThread; ++i) {
        auto result = minihouse::PlanAndExecute(random_query(&rng), optimizer,
                                                bc.get());
        if (!result.ok() || result.value().ScalarCount() <= 0) {
          failures.fetch_add(1);
          continue;
        }
        // Publishes are serialized, so the version each query pinned can
        // only move forward within one thread.
        const uint64_t version = result.value().stats.snapshot_version;
        if (version < last_version) nonmonotonic.fetch_add(1);
        last_version = version;
      }
    });
  }

  // Lifecycle churn concurrent with ingest + queries: retrains, refreshes,
  // drift processing.
  threads.emplace_back([&] {
    const minihouse::Table* fact = db->FindTable("fact").value();
    for (int i = 0; i < 4; ++i) {
      if (!bc->RetrainTable(*fact).ok()) failures.fetch_add(1);
      if (!bc->RefreshModels().ok()) failures.fetch_add(1);
      bc->ProcessFeedback(db.get());
      std::this_thread::yield();
    }
  });

  // Ingest on this thread: every batch fires the maintainer observer, which
  // re-enters the facade and publishes a delta snapshot.
  Rng ingest_rng(77);
  const uint64_t version_before = bc->SnapshotVersion();
  for (int b = 0; b < kBatches; ++b) {
    auto event = ingestor.IngestStationaryBatch("fact", 250, &ingest_rng);
    if (!event.ok()) failures.fetch_add(1);
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(nonmonotonic.load(), 0);
  EXPECT_EQ(bc->scheduler()->counters().completed,
            kServingThreads * kQueriesPerThread);
  bc->StopServing();
  // Every batch published (possibly interleaved with lifecycle publishes).
  EXPECT_GE(bc->SnapshotVersion(), version_before + kBatches);
  EXPECT_EQ(
      bc->incremental_maintainer()->stats().batches_applied, kBatches);
  EXPECT_EQ(db->FindTable("fact").value()->num_rows(),
            4000 + kBatches * 250);
}

}  // namespace
}  // namespace bytecard
