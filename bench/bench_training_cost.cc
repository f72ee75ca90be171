// Reproduces Table 3 (training time and model size of MSCN, DeepDB,
// BayesCard and ByteCard's BN + FactorJoin) and Table 6 (ByteCard's BN,
// FactorJoin and RBX models per dataset) from one ByteCard bootstrap per
// dataset.
//
// As in the paper: MSCN's label-collection cost (executing true
// cardinalities) is excluded from its training time; Table 3 compares COUNT
// estimators only, so it leaves RBX out; Table 6 reports RBX's training time
// once, since one workload-independent model serves every dataset, plus the
// calibration fine-tune AEOLUS runs for its high-NDV ad_id column.

#include <cstdio>
#include <optional>

#include "bench_util.h"
#include "bytecard/model_forge.h"
#include "cardest/baselines/bayescard.h"
#include "cardest/baselines/denorm.h"
#include "cardest/baselines/mscn.h"
#include "cardest/baselines/spn.h"
#include "cardest/ndv/rbx.h"
#include "common/stopwatch.h"
#include "stats/ndv_classic.h"
#include "stats/sampler.h"
#include "workload/truth.h"

namespace bytecard::bench {
namespace {

struct ModelCost {
  double seconds = 0.0;
  int64_t bytes = 0;
};

struct DatasetCosts {
  std::string dataset;
  ModelCost mscn;
  ModelCost deepdb;
  ModelCost bayescard;
  ModelCost bn;
  ModelCost factorjoin;
  ModelCost bytecard;  // bn + factorjoin
  std::optional<ModelCost> rbx_fine_tune;
};

template <typename Model>
int64_t SerializedBytes(const Model& model) {
  BufferWriter writer;
  model.Serialize(&writer);
  return static_cast<int64_t>(writer.buffer().size());
}

// AEOLUS's ad_id column has exceptionally high NDV: the paper fine-tunes RBX
// on it (its "57 min"). The tuned artifact is published to a store of its
// own, so no context built later in this process picks it up.
ModelCost FineTuneRbxOnAdId(const minihouse::Database& db) {
  const minihouse::Table* events = db.FindTable("ad_events").value();
  const int ad_id = events->FindColumnIndex("ad_id");
  auto true_ndv = workload::TrueColumnNdv(*events, ad_id, {});
  BC_CHECK_OK(true_ndv.status());
  Rng rng(BenchSeed() ^ 0x99);
  std::vector<cardest::NdvTrainingExample> problematic;
  for (int i = 0; i < 10; ++i) {
    stats::TableSample sample =
        stats::TableSample::Build(*events, 0.02, 20000, &rng);
    cardest::NdvTrainingExample example;
    example.frequencies =
        stats::ComputeFrequencies(sample.column(ad_id), events->num_rows());
    example.true_ndv = true_ndv.value();
    problematic.push_back(std::move(example));
  }
  ModelForgeService forge(BenchModelDir() + "/rbx_fine_tune");
  auto tuned = forge.FineTuneRbx(SharedRbxArtifact(), problematic,
                                 BenchSeed());
  BC_CHECK_OK(tuned.status());
  return {tuned.value().train_seconds, tuned.value().size_bytes};
}

DatasetCosts EvaluateDataset(const std::string& dataset) {
  BenchContextOptions options;
  options.build_traditional = false;
  BenchContext ctx = BuildBenchContext(dataset, options);
  DatasetCosts costs;
  costs.dataset = dataset;

  // ByteCard: trained during bootstrap; read its accounting.
  const ByteCardTrainingStats& stats = ctx.bytecard->training_stats();
  costs.bn = {stats.bn_seconds, stats.bn_bytes};
  costs.factorjoin = {stats.factorjoin_seconds, stats.factorjoin_bytes};
  costs.bytecard = {costs.bn.seconds + costs.factorjoin.seconds,
                    costs.bn.bytes + costs.factorjoin.bytes};

  // MSCN: labels first (excluded from train time), then training.
  {
    std::vector<minihouse::BoundQuery> queries;
    std::vector<double> labels;
    for (const auto& wq : ctx.workload.queries) {
      if (wq.aggregate) continue;
      auto truth = workload::TrueCount(wq.query);
      BC_CHECK_OK(truth.status());
      queries.push_back(wq.query);
      labels.push_back(static_cast<double>(truth.value()));
    }
    Stopwatch timer;
    cardest::MscnModel::TrainOptions mscn_options;
    auto model =
        cardest::MscnModel::Train(*ctx.db, queries, labels, mscn_options);
    BC_CHECK_OK(model.status());
    costs.mscn = {timer.ElapsedSeconds(), SerializedBytes(model.value())};
  }

  // Shared denormalized join sample for the data-driven baselines.
  auto full_join = workload::FullJoinTemplate(*ctx.db, dataset);
  BC_CHECK_OK(full_join.status());

  // DeepDB-style SPN over the denormalized sample (denormalization is part
  // of its training pipeline, so it is timed).
  {
    Stopwatch timer;
    auto denorm = cardest::BuildDenormalizedSample(full_join.value(), 20000,
                                                   120000, BenchSeed());
    BC_CHECK_OK(denorm.status());
    cardest::SpnModel::TrainOptions spn_options;
    // DeepDB's defaults learn deep structures: fine independence threshold
    // and small leaf slices.
    spn_options.mi_threshold = 0.003;
    spn_options.min_instances = 256;
    auto model = cardest::SpnModel::Train(*denorm.value(), spn_options);
    BC_CHECK_OK(model.status());
    costs.deepdb = {timer.ElapsedSeconds(), SerializedBytes(model.value())};
  }

  // BayesCard: BN over the denormalized sample.
  {
    Stopwatch timer;
    cardest::BayesCardModel::TrainOptions bc_options;
    bc_options.seed = BenchSeed();
    auto model = cardest::BayesCardModel::Train(full_join.value(), bc_options);
    BC_CHECK_OK(model.status());
    costs.bayescard = {timer.ElapsedSeconds(), SerializedBytes(model.value())};
  }

  if (dataset == "aeolus") costs.rbx_fine_tune = FineTuneRbxOnAdId(*ctx.db);
  return costs;
}

void PrintScaleAndSeed() {
  std::printf("scale=%.3f seed=%llu\n\n", ScaleFactor(),
              static_cast<unsigned long long>(BenchSeed()));
}

void PrintTable3(const std::vector<DatasetCosts>& per_dataset) {
  std::printf(
      "Table 3: Training Time and Model Size of CardEst Models\n"
      "(paper units are minutes/MB on 1TB data; this reproduction reports\n"
      " seconds/KB at laptop scale — compare the *ratios* across models)\n");
  PrintScaleAndSeed();
  PrintRow({"Measure", "MSCN i/s/a", "DeepDB i/s/a", "BayesCard i/s/a",
            "ByteCard(BN+FactorJoin) i/s/a"});
  auto row_of = [&](const char* label, auto getter) {
    std::vector<std::string> row = {label};
    for (auto member : {&DatasetCosts::mscn, &DatasetCosts::deepdb,
                        &DatasetCosts::bayescard, &DatasetCosts::bytecard}) {
      std::string cell;
      for (size_t d = 0; d < per_dataset.size(); ++d) {
        if (d > 0) cell += " / ";
        cell += Fmt(getter(per_dataset[d].*member));
      }
      row.push_back(cell);
    }
    PrintRow(row);
  };
  row_of("Training Time (s)",
         [](const ModelCost& c) { return c.seconds; });
  row_of("Model Size (KB)",
         [](const ModelCost& c) { return c.bytes / 1024.0; });
}

void PrintTable6(const std::vector<DatasetCosts>& per_dataset) {
  std::printf("Table 6: Details of ByteCard's Models Per Dataset\n");
  std::printf(
      "(paper units minutes/MB at 1TB; here seconds/KB at laptop scale)\n");
  PrintScaleAndSeed();
  PrintRow({"Dataset", "Method", "Model Size (KB)", "Training Time (s)"});
  auto print_model = [](const std::string& dataset, const char* method,
                        const ModelCost& cost, const std::string& time) {
    PrintRow({dataset, method, Fmt(cost.bytes / 1024.0), time});
  };
  const ModelArtifact& rbx = SharedRbxArtifact();
  for (size_t d = 0; d < per_dataset.size(); ++d) {
    const DatasetCosts& costs = per_dataset[d];
    print_model(costs.dataset, "BN", costs.bn, Fmt(costs.bn.seconds));
    print_model(costs.dataset, "FactorJoin", costs.factorjoin,
                Fmt(costs.factorjoin.seconds));
    if (costs.rbx_fine_tune.has_value()) {
      print_model(costs.dataset, "RBX (fine-tuned)", *costs.rbx_fine_tune,
                  Fmt(costs.rbx_fine_tune->seconds));
    } else {
      print_model(costs.dataset, "RBX", {rbx.train_seconds, rbx.size_bytes},
                  d == 0 ? Fmt(rbx.train_seconds) : "- (pretrained)");
    }
  }
}

void Run() {
  std::vector<DatasetCosts> per_dataset;
  for (const char* dataset : {"imdb", "stats", "aeolus"}) {
    per_dataset.push_back(EvaluateDataset(dataset));
  }
  PrintTable3(per_dataset);
  std::printf("\n");
  PrintTable6(per_dataset);
}

}  // namespace
}  // namespace bytecard::bench

int main() {
  bytecard::bench::Run();
  return 0;
}
