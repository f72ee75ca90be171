// Concurrency guarantees of the inference context (paper §4.1: after
// InitContext, estimation is lock-free on immutable structures and safe to
// call from every query thread). Run under TSan to catch data races; even
// without TSan, racing threads asserting identical results catches
// accidental mutation.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "bytecard/bytecard.h"
#include "bytecard/inference_engine.h"
#include "minihouse/aggregate.h"
#include "cardest/bayes/bayes_net.h"
#include "test_util.h"

namespace bytecard {
namespace {

using cardest::BayesNetModel;
using cardest::BnInferenceContext;
using minihouse::CompareOp;

minihouse::ColumnPredicate Pred(int column, CompareOp op, int64_t operand) {
  minihouse::ColumnPredicate pred;
  pred.column = column;
  pred.op = op;
  pred.operand = operand;
  return pred;
}

TEST(ConcurrencyTest, SharedBnContextManyThreads) {
  auto db = testutil::BuildToyDatabase(20000);
  cardest::BnTrainOptions options;
  options.max_train_rows = 0;
  auto model = BayesNetModel::Train(*db->FindTable("fact").value(), options);
  ASSERT_TRUE(model.ok());
  const BnInferenceContext context(&model.value());

  // Reference answers computed single-threaded.
  std::vector<minihouse::Conjunction> queries;
  std::vector<double> expected;
  for (int64_t v = 1; v <= 48; ++v) {
    queries.push_back({Pred(1, CompareOp::kLe, v)});
    expected.push_back(context.EstimateSelectivity(queries.back()));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      for (int iter = 0; iter < 200; ++iter) {
        const size_t q = (t * 37 + iter) % queries.size();
        const double got = context.EstimateSelectivity(queries[q]);
        if (got != expected[q]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, MarginalsSafeConcurrently) {
  auto db = testutil::BuildToyDatabase(10000);
  cardest::BnTrainOptions options;
  auto model = BayesNetModel::Train(*db->FindTable("fact").value(), options);
  ASSERT_TRUE(model.ok());
  const BnInferenceContext context(&model.value());

  const minihouse::Conjunction filters = {Pred(1, CompareOp::kLt, 25)};
  auto reference = context.MarginalWithEvidence(filters, 0);
  ASSERT_TRUE(reference.ok());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&]() {
      for (int iter = 0; iter < 100; ++iter) {
        auto marginal = context.MarginalWithEvidence(filters, 0);
        if (!marginal.ok() ||
            marginal.value() != reference.value()) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, RbxEngineSharedAcrossThreads) {
  cardest::RbxTrainOptions options;
  options.population_sizes = {10000};
  options.sample_rates = {0.05};
  options.replicas = 1;
  options.epochs = 10;
  auto model = cardest::RbxModel::TrainWorkloadIndependent(options);
  ASSERT_TRUE(model.ok());
  BufferWriter writer;
  model.value().Serialize(&writer);

  RbxNdvEngine engine;
  ASSERT_TRUE(engine.LoadModel(writer.buffer()).ok());
  ASSERT_TRUE(engine.InitContext().ok());

  Rng rng(3);
  std::vector<int64_t> sample;
  for (int i = 0; i < 500; ++i) sample.push_back(rng.UniformInt(0, 99));
  const stats::SampleFrequencies freqs =
      stats::ComputeFrequencies(sample, 10000);
  const FeatureVector features = engine.FeaturizeSample(freqs);
  auto reference = engine.Estimate(features);
  ASSERT_TRUE(reference.ok());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&]() {
      for (int iter = 0; iter < 200; ++iter) {
        auto estimate = engine.Estimate(features);
        if (!estimate.ok() || estimate.value() != reference.value()) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, SnapshotPublishSafeDuringEstimation) {
  // The tentpole guarantee of the versioned-snapshot architecture: model
  // lifecycle writers (RefreshModels, RetrainTable pickup, monitor
  // demotion/promotion) may publish successor snapshots WHILE query threads
  // estimate. Every query pins one snapshot and must observe a single
  // consistent version for its whole plan: repeated estimates through one
  // pin are bit-identical and the pinned version never moves, no matter how
  // many publishes land concurrently.
  const testutil::TempDir tmp("snapshot_stress");
  const std::string& dir = tmp.str();
  auto db = testutil::BuildToyDatabase(8000);

  ByteCard::Options options;
  options.rbx.population_sizes = {10000};
  options.rbx.sample_rates = {0.05};
  options.rbx.replicas = 1;
  options.rbx.epochs = 5;
  options.run_monitor = false;
  auto bc = ByteCard::Bootstrap(*db, {testutil::ToyJoinQuery(*db)}, dir,
                                options);
  ASSERT_TRUE(bc.ok()) << bc.status().ToString();
  ByteCard* bytecard = bc.value().get();
  const minihouse::Table& fact = *db->FindTable("fact").value();
  minihouse::BoundQuery join_query = testutil::ToyJoinQuery(*db);
  const uint64_t version_at_start = bytecard->SnapshotVersion();

  std::atomic<int> mismatches{0};
  std::atomic<bool> readers_done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 6; ++t) {
    readers.emplace_back([&, t]() {
      for (int iter = 0; iter < 300; ++iter) {
        // Pin once, estimate many times — the per-query contract.
        auto pinned = bytecard->PinSnapshot();
        const uint64_t version = pinned->SnapshotVersion();
        const minihouse::Conjunction filters = {
            Pred(1, CompareOp::kLe, 1 + (t * 31 + iter) % 48)};
        const double sel1 = pinned->EstimateSelectivity(fact, filters);
        const double join1 =
            pinned->EstimateJoinCardinality(join_query, {0, 1});
        const double sel2 = pinned->EstimateSelectivity(fact, filters);
        const double join2 =
            pinned->EstimateJoinCardinality(join_query, {0, 1});
        if (sel1 != sel2 || join1 != join2) mismatches.fetch_add(1);
        if (pinned->SnapshotVersion() != version) mismatches.fetch_add(1);

        // The optimizer path pins through EstimationContext the same way.
        minihouse::EstimationContext ctx(bytecard);
        ctx.Selectivity(fact, filters);
        ctx.JoinCardinality(join_query, {0, 1});
        const minihouse::EstimationStats stats = ctx.stats();
        if (stats.snapshot_version < version_at_start) mismatches.fetch_add(1);
      }
    });
  }

  // The lifecycle writer: health demotions/promotions and full refresh
  // cycles, each publishing a successor snapshot under the readers' feet,
  // for as long as any reader is still estimating.
  std::thread writer([&]() {
    int refreshes = 0;
    for (int i = 0; !readers_done.load() || i < 8; ++i) {
      bytecard->SetTableHealth("fact", i % 2 == 1);
      if (i % 7 == 3 && refreshes < 3) {
        ++refreshes;
        ASSERT_TRUE(bytecard->RetrainTable(fact).ok());
        auto applied = bytecard->RefreshModels();
        ASSERT_TRUE(applied.ok()) << applied.status().ToString();
        EXPECT_GE(applied.value(), 1);
      }
    }
    bytecard->SetTableHealth("fact", true);
  });

  for (auto& thread : readers) thread.join();
  readers_done.store(true);
  writer.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Health flips + refreshes really did publish successors.
  EXPECT_GT(bytecard->SnapshotVersion(), version_at_start);
}

TEST(ConcurrencyTest, AggregationHashTablesIndependentPerThread) {
  // Each query thread owns its hash table (engine-level invariant); verify
  // independent tables produce identical results in parallel.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&]() {
      minihouse::AggregationHashTable table(1, 0);
      for (int64_t k = 0; k < 2000; ++k) {
        const int64_t key = k % 97;
        if (table.FindOrInsert(&key) != key % 97) mismatches.fetch_add(1);
      }
      if (table.num_groups() != 97) mismatches.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace bytecard
