// Robustness / fuzz-style tests: hostile artifacts and malformed inputs must
// fail with clean Status errors, never crashes or hangs. This is the
// contract the Model Validator and Loader depend on (paper §4.2.1: loading
// must not destabilize query processing).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <fstream>

#include "bytecard/inference_engine.h"
#include "bytecard/model_forge.h"
#include "bytecard/model_loader.h"
#include "bytecard/routing/routing_table.h"
#include "cardest/baselines/bayescard.h"
#include "cardest/baselines/mscn.h"
#include "cardest/baselines/spn.h"
#include "common/rng.h"
#include "sql/parser.h"
#include "stats/histogram.h"
#include "test_util.h"

namespace bytecard {
namespace {

namespace fs = std::filesystem;

std::string RandomBytes(Rng* rng, size_t n) {
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng->Uniform(256));
  return bytes;
}

// --- Deserializers under random bytes -----------------------------------------

TEST(RobustnessTest, ModelDeserializersRejectGarbage) {
  Rng rng(0xfeedface);
  for (int trial = 0; trial < 50; ++trial) {
    const std::string garbage = RandomBytes(&rng, rng.UniformInt(0, 512));
    {
      BufferReader reader(garbage);
      EXPECT_FALSE(cardest::BayesNetModel::Deserialize(&reader).ok());
    }
    {
      BufferReader reader(garbage);
      EXPECT_FALSE(cardest::FactorJoinModel::Deserialize(&reader).ok());
    }
    {
      BufferReader reader(garbage);
      EXPECT_FALSE(cardest::RbxModel::Deserialize(&reader).ok());
    }
    {
      BufferReader reader(garbage);
      EXPECT_FALSE(cardest::Mlp::Deserialize(&reader).ok());
    }
    {
      BufferReader reader(garbage);
      EXPECT_FALSE(cardest::SpnModel::Deserialize(&reader).ok());
    }
    {
      BufferReader reader(garbage);
      EXPECT_FALSE(cardest::MscnModel::Deserialize(&reader).ok());
    }
    {
      BufferReader reader(garbage);
      EXPECT_FALSE(cardest::BayesCardModel::Deserialize(&reader).ok());
    }
  }
}

TEST(RobustnessTest, TruncatedRealArtifactsRejectedAtEveryPrefix) {
  auto db = testutil::BuildToyDatabase(2000);
  cardest::BnTrainOptions options;
  auto model =
      cardest::BayesNetModel::Train(*db->FindTable("fact").value(), options);
  ASSERT_TRUE(model.ok());
  BufferWriter writer;
  model.value().Serialize(&writer);
  const std::string& bytes = writer.buffer();

  // Every strict prefix must fail to deserialize (or, if it parses by
  // structural luck, must fail validation) — never crash.
  for (size_t cut = 0; cut < bytes.size(); cut += 37) {
    BufferReader reader(bytes.data(), cut);
    auto restored = cardest::BayesNetModel::Deserialize(&reader);
    if (restored.ok()) {
      // A prefix that parsed must still carry a structurally valid model
      // before the validator would admit it.
      (void)restored.value().ValidateStructure();
    }
  }
  SUCCEED();
}

TEST(RobustnessTest, EnginesRejectGarbageViaLoadModel) {
  Rng rng(77);
  BnCountEngine bn;
  RbxNdvEngine rbx;
  std::map<std::string, const cardest::BnInferenceContext*> empty;
  FactorJoinEngine fj(&empty);
  for (int trial = 0; trial < 20; ++trial) {
    const std::string garbage = RandomBytes(&rng, 64 + trial * 13);
    EXPECT_FALSE(bn.LoadModel(garbage).ok());
    EXPECT_FALSE(rbx.LoadModel(garbage).ok());
    EXPECT_FALSE(fj.LoadModel(garbage).ok());
  }
}

// Real artifacts with 8 bytes overwritten by 0xff: at every offset of the
// first 64 bytes, which hold each artifact's first element count, then at a
// stride. A count read from the artifact must never size a container past
// the buffer (that aborts), so every load returns a Status; one that parses
// may still fail validation. An artifact with one byte appended must not
// load at all.
TEST(RobustnessTest, CorruptArtifactsFailCleanly) {
  auto db = testutil::BuildToyDatabase(2000);
  std::map<std::string, const cardest::BnInferenceContext*> no_contexts;
  using Load = std::function<Status(const std::string&)>;
  std::vector<std::pair<std::string, Load>> loads;

  cardest::BnTrainOptions bn_options;
  auto bn = cardest::BayesNetModel::Train(*db->FindTable("fact").value(),
                                          bn_options);
  ASSERT_TRUE(bn.ok());
  BufferWriter bn_bytes;
  bn.value().Serialize(&bn_bytes);
  loads.emplace_back(bn_bytes.buffer(), [](const std::string& bytes) {
    BnCountEngine engine;
    BC_RETURN_IF_ERROR(engine.LoadModel(bytes));
    return engine.Validate();
  });

  auto fj = cardest::FactorJoinModel::Train(*db, {{{"dim", 0}, {"fact", 0}}},
                                            16);
  ASSERT_TRUE(fj.ok());
  BufferWriter fj_bytes;
  fj.value().Serialize(&fj_bytes);
  loads.emplace_back(fj_bytes.buffer(), [&](const std::string& bytes) {
    FactorJoinEngine engine(&no_contexts);
    BC_RETURN_IF_ERROR(engine.LoadModel(bytes));
    return engine.Validate();
  });

  cardest::RbxTrainOptions rbx_options;
  rbx_options.population_sizes = {10000};
  rbx_options.sample_rates = {0.05};
  rbx_options.replicas = 1;
  rbx_options.epochs = 2;
  auto rbx = cardest::RbxModel::TrainWorkloadIndependent(rbx_options);
  ASSERT_TRUE(rbx.ok());
  BufferWriter rbx_bytes;
  rbx.value().Serialize(&rbx_bytes);
  loads.emplace_back(rbx_bytes.buffer(), [](const std::string& bytes) {
    RbxNdvEngine engine;
    BC_RETURN_IF_ERROR(engine.LoadModel(bytes));
    return engine.Validate();
  });

  routing::RoutingTable routes;
  routing::RouteDecision decision;
  decision.family = routing::RouteFamily::kBn;
  decision.samples = 3;
  decision.tables = {"fact"};
  routes.Insert("fact(1:lt)", decision);
  decision.family = routing::RouteFamily::kFactorJoin;
  decision.tables = {"dim", "fact"};
  routes.Insert("J(dim(),fact(1:lt);0.0=1.0)", decision);
  BufferWriter route_bytes;
  routes.Serialize(&route_bytes);
  loads.emplace_back(route_bytes.buffer(), [](const std::string& bytes) {
    return routing::RoutingTable::Deserialize(bytes).status();
  });

  for (const auto& [bytes, load] : loads) {
    ASSERT_TRUE(load(bytes).ok());
    EXPECT_FALSE(load(bytes + '\0').ok());
    const size_t stride = std::max<size_t>(1, bytes.size() / 256);
    for (size_t at = 0; at + 8 <= bytes.size();
         at += at < 64 ? 1 : stride) {
      std::string corrupt = bytes;
      corrupt.replace(at, 8, 8, '\xff');
      (void)load(corrupt);
    }
  }
}

// --- Hostile artifact store -----------------------------------------------------

TEST(RobustnessTest, LoaderSurvivesJunkFilesInStore) {
  const testutil::TempDir tmp("junk_store");
  const std::string& dir = tmp.str();

  // Junk that must be ignored or surfaced as data, never crash.
  std::ofstream(dir + "/README.txt") << "not a model";
  std::ofstream(dir + "/bn.fact.model") << "missing timestamp part";
  std::ofstream(dir + "/bn.fact.notanumber.model") << "bad ts";
  std::ofstream(dir + "/bn.fact.42.model") << "garbage body";
  fs::create_directories(dir + "/subdir.model");

  ModelLoader loader(dir);
  auto loaded = loader.PollOnce();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The one well-formed name gets loaded (bytes are garbage — the engine
  // layer rejects them); the rest are skipped.
  for (const LoadedModel& model : loaded.value()) {
    BnCountEngine engine;
    EXPECT_FALSE(engine.LoadModel(model.bytes).ok());
  }
}

// --- SQL parser under random token soup ----------------------------------------

TEST(RobustnessTest, ParserNeverCrashesOnTokenSoup) {
  Rng rng(31337);
  const std::vector<std::string> vocab = {
      "SELECT", "FROM",  "WHERE", "GROUP",  "BY",      "AND",  "COUNT",
      "SUM",    "(",     ")",     ",",      "*",       "=",    "<",
      ">",      "<=",    ">=",    "!=",     "BETWEEN", "IN",   "t",
      "a",      "b",     "1",     "2.5",    "'s'",     ".",    "DISTINCT",
  };
  for (int trial = 0; trial < 400; ++trial) {
    std::string sql;
    const int len = 1 + static_cast<int>(rng.Uniform(24));
    for (int i = 0; i < len; ++i) {
      sql += vocab[rng.Uniform(vocab.size())];
      sql += ' ';
    }
    (void)sql::ParseSelect(sql);  // must return, ok or not
  }
  SUCCEED();
}

TEST(RobustnessTest, ParserHandlesPathologicalStrings) {
  EXPECT_FALSE(sql::ParseSelect(std::string(10000, '(')).ok());
  EXPECT_FALSE(sql::ParseSelect("SELECT " + std::string(4000, 'a')).ok());
  EXPECT_FALSE(sql::ParseSelect(std::string("\0\0\0", 3)).ok());
  // Deeply repetitive but valid WHERE chain parses fine.
  std::string sql = "SELECT COUNT(*) FROM t WHERE a = 1";
  for (int i = 0; i < 500; ++i) sql += " AND a = 1";
  EXPECT_TRUE(sql::ParseSelect(sql).ok());
}

// --- Estimation layers under extreme predicates ---------------------------------

TEST(RobustnessTest, EstimatorsHandleExtremeOperands) {
  auto db = testutil::BuildToyDatabase(3000);
  const minihouse::Table& fact = *db->FindTable("fact").value();
  cardest::BnTrainOptions options;
  auto model = cardest::BayesNetModel::Train(fact, options);
  ASSERT_TRUE(model.ok());
  const cardest::BnInferenceContext context(&model.value());
  const auto hist = stats::EquiHeightHistogram::Build(fact.column(1), 16);

  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng rng(5);
  for (int trial = 0; trial < 60; ++trial) {
    minihouse::ColumnPredicate pred;
    pred.column = static_cast<int>(rng.Uniform(3));
    pred.op = static_cast<minihouse::CompareOp>(rng.Uniform(8));
    const int64_t extremes[] = {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
    pred.operand = extremes[rng.Uniform(std::size(extremes))];
    pred.operand2 = extremes[rng.Uniform(std::size(extremes))];
    if (pred.operand2 < pred.operand) std::swap(pred.operand, pred.operand2);
    pred.in_list = {kMin, 0, kMax};

    const double sel = context.EstimateSelectivity({pred});
    EXPECT_GE(sel, 0.0);
    EXPECT_LE(sel, 1.0);
    if (pred.column == 1) {
      const double hist_sel = hist.Selectivity(pred);
      EXPECT_GE(hist_sel, 0.0);
      EXPECT_LE(hist_sel, 1.0);
    }
  }
}

}  // namespace
}  // namespace bytecard
