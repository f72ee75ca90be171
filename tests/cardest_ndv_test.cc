// Frequency profile, MLP training mechanics, the RBX NDV estimator, and the
// mergeable HyperLogLog NDV sketches behind incremental maintenance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "cardest/ndv/freq_profile.h"
#include "cardest/ndv/hll.h"
#include "cardest/ndv/mlp.h"
#include "cardest/ndv/rbx.h"
#include "common/rng.h"
#include "common/serde.h"
#include "test_util.h"

namespace bytecard::cardest {
namespace {

// --- Frequency profile ----------------------------------------------------------

TEST(FreqProfileTest, DimensionsAndBasicFields) {
  stats::SampleFrequencies freqs;
  freqs.freq = {10, 5, 2};  // f1=10, f2=5, f3=2
  freqs.sample_size = 26;
  freqs.population_size = 1000;
  const std::vector<double> profile = BuildFrequencyProfile(freqs);
  ASSERT_EQ(profile.size(), static_cast<size_t>(kFrequencyProfileDim));
  EXPECT_DOUBLE_EQ(profile[0], std::log1p(10.0));
  EXPECT_DOUBLE_EQ(profile[1], std::log1p(5.0));
  EXPECT_DOUBLE_EQ(profile[2], std::log1p(2.0));
  EXPECT_DOUBLE_EQ(profile[13], std::log1p(17.0));  // d = 10+5+2
  EXPECT_DOUBLE_EQ(profile[14], std::log1p(26.0));
  EXPECT_DOUBLE_EQ(profile[15], std::log1p(1000.0));
  EXPECT_DOUBLE_EQ(profile[16], 26.0 / 1000.0);
}

TEST(FreqProfileTest, GeometricTailBuckets) {
  stats::SampleFrequencies freqs;
  freqs.freq.assign(200, 0);
  freqs.freq[9] = 3;    // f10 -> range (9..16]
  freqs.freq[99] = 7;   // f100 -> range (65..128]
  freqs.freq[199] = 2;  // f200 -> tail (128, inf)
  freqs.sample_size = 30 + 700 + 400;
  freqs.population_size = 10000;
  const std::vector<double> profile = BuildFrequencyProfile(freqs);
  EXPECT_DOUBLE_EQ(profile[8], std::log1p(3.0));   // (9..16]
  EXPECT_DOUBLE_EQ(profile[11], std::log1p(7.0));  // (64..128]
  EXPECT_DOUBLE_EQ(profile[12], std::log1p(2.0));  // tail
}

TEST(FreqProfileTest, EmptySample) {
  stats::SampleFrequencies freqs;
  freqs.population_size = 100;
  const std::vector<double> profile = BuildFrequencyProfile(freqs);
  for (int i = 0; i < 14; ++i) EXPECT_EQ(profile[i], 0.0);
}

// --- Mlp ------------------------------------------------------------------------

TEST(MlpTest, CreateShapes) {
  const Mlp mlp = Mlp::Create({4, 8, 1}, 3);
  EXPECT_EQ(mlp.input_dim(), 4);
  EXPECT_EQ(mlp.num_layers(), 2);
  EXPECT_EQ(mlp.num_parameters(), 4 * 8 + 8 + 8 * 1 + 1);
}

TEST(MlpTest, DeterministicInit) {
  const Mlp a = Mlp::Create({3, 4, 1}, 7);
  const Mlp b = Mlp::Create({3, 4, 1}, 7);
  EXPECT_EQ(a.Predict({1.0, 2.0, 3.0}), b.Predict({1.0, 2.0, 3.0}));
}

TEST(MlpTest, LearnsLinearFunction) {
  // y = 2 x0 - x1 + 0.5
  Rng rng(5);
  std::vector<std::vector<double>> inputs;
  std::vector<double> targets;
  for (int i = 0; i < 600; ++i) {
    const double x0 = rng.NextDouble() * 2.0 - 1.0;
    const double x1 = rng.NextDouble() * 2.0 - 1.0;
    inputs.push_back({x0, x1});
    targets.push_back(2.0 * x0 - x1 + 0.5);
  }
  Mlp mlp = Mlp::Create({2, 16, 16, 1}, 11);
  Mlp::TrainConfig config;
  config.epochs = 200;
  config.learning_rate = 3e-3;
  const double loss = mlp.Train(inputs, targets, config);
  EXPECT_LT(loss, 0.01);
  EXPECT_NEAR(mlp.Predict({0.5, -0.5}), 2.0, 0.25);
}

TEST(MlpTest, LearnsNonlinearFunction) {
  // y = |x| requires a hidden layer.
  Rng rng(6);
  std::vector<std::vector<double>> inputs;
  std::vector<double> targets;
  for (int i = 0; i < 800; ++i) {
    const double x = rng.NextDouble() * 4.0 - 2.0;
    inputs.push_back({x});
    targets.push_back(std::fabs(x));
  }
  Mlp mlp = Mlp::Create({1, 16, 16, 1}, 13);
  Mlp::TrainConfig config;
  config.epochs = 300;
  config.learning_rate = 3e-3;
  mlp.Train(inputs, targets, config);
  EXPECT_NEAR(mlp.Predict({1.5}), 1.5, 0.3);
  EXPECT_NEAR(mlp.Predict({-1.5}), 1.5, 0.3);
}

TEST(MlpTest, AsymmetricPenaltyBiasesUpward) {
  // Noisy constant target: with a heavy underestimation penalty the learned
  // constant shifts above the mean.
  Rng rng(7);
  std::vector<std::vector<double>> inputs;
  std::vector<double> targets;
  for (int i = 0; i < 500; ++i) {
    inputs.push_back({1.0});
    targets.push_back(rng.NextGaussian());  // mean 0
  }
  Mlp symmetric = Mlp::Create({1, 8, 1}, 17);
  Mlp biased = Mlp::Create({1, 8, 1}, 17);
  Mlp::TrainConfig config;
  config.epochs = 150;
  symmetric.Train(inputs, targets, config);
  config.underestimation_penalty = 8.0;
  biased.Train(inputs, targets, config);
  EXPECT_GT(biased.Predict({1.0}), symmetric.Predict({1.0}));
}

TEST(MlpTest, SerializationRoundTrip) {
  Mlp mlp = Mlp::Create({3, 8, 4, 1}, 19);
  BufferWriter writer;
  mlp.Serialize(&writer);
  BufferReader reader(writer.buffer());
  auto restored = Mlp::Deserialize(&reader);
  ASSERT_TRUE(restored.ok());
  const std::vector<double> x = {0.1, -0.2, 0.3};
  EXPECT_EQ(restored.value().Predict(x), mlp.Predict(x));
}

TEST(MlpTest, CorruptArtifactRejected) {
  Mlp mlp = Mlp::Create({3, 8, 1}, 21);
  BufferWriter writer;
  mlp.Serialize(&writer);
  std::string bytes = writer.buffer();
  bytes.resize(bytes.size() - 16);
  BufferReader reader(bytes);
  EXPECT_FALSE(Mlp::Deserialize(&reader).ok());
}

TEST(MlpTest, ValidateWeightsFindsNonFinite) {
  Mlp mlp = Mlp::Create({2, 4, 1}, 23);
  EXPECT_TRUE(mlp.ValidateWeights().ok());
}

// A network's parameters, read back from its serialized form.
struct MlpParams {
  std::vector<int> sizes;
  std::vector<std::vector<double>> weights;  // [layer], row-major [out][in]
  std::vector<std::vector<double>> biases;   // [layer][out]
};

MlpParams ParamsOf(const Mlp& mlp) {
  BufferWriter writer;
  mlp.Serialize(&writer);
  BufferReader reader(writer.buffer());
  MlpParams params;
  uint32_t version = 0;
  uint64_t num_sizes = 0;
  EXPECT_TRUE(reader.ReadU32(&version).ok());
  EXPECT_TRUE(reader.ReadU64(&num_sizes).ok());
  for (uint64_t s = 0; s < num_sizes; ++s) {
    int64_t size = 0;
    EXPECT_TRUE(reader.ReadI64(&size).ok());
    params.sizes.push_back(static_cast<int>(size));
  }
  params.weights.resize(num_sizes - 1);
  params.biases.resize(num_sizes - 1);
  for (uint64_t l = 0; l + 1 < num_sizes; ++l) {
    EXPECT_TRUE(reader.ReadDoubleVec(&params.weights[l]).ok());
    EXPECT_TRUE(reader.ReadDoubleVec(&params.biases[l]).ok());
  }
  return params;
}

// Minibatch Adam, one example at a time through forward and backward: the
// reference Mlp::Train must equal bit for bit. Each output's sum starts from
// its bias and adds inputs in ascending order, each gradient sums the batch
// in example order, and each back-propagated delta sums outputs in ascending
// order from 0.0 under the ReLU gate.
double ReferenceTrain(MlpParams* net,
                      const std::vector<std::vector<double>>& inputs,
                      const std::vector<double>& targets,
                      const Mlp::TrainConfig& config) {
  const int64_t n = static_cast<int64_t>(inputs.size());
  const int layers = static_cast<int>(net->weights.size());
  std::vector<std::vector<double>> mw(layers), vw(layers), mb(layers),
      vb(layers);
  for (int l = 0; l < layers; ++l) {
    mw[l].assign(net->weights[l].size(), 0.0);
    vw[l].assign(net->weights[l].size(), 0.0);
    mb[l].assign(net->biases[l].size(), 0.0);
    vb[l].assign(net->biases[l].size(), 0.0);
  }
  int64_t adam_t = 0;
  Rng rng(config.seed);
  std::vector<int64_t> order(n);
  for (int64_t i = 0; i < n; ++i) order[i] = i;

  double last_epoch_loss = 0.0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    for (int64_t cursor = 0; cursor < n; cursor += config.batch_size) {
      const int64_t batch_end =
          std::min<int64_t>(n, cursor + config.batch_size);
      std::vector<std::vector<double>> grad_w(layers), grad_b(layers);
      for (int l = 0; l < layers; ++l) {
        grad_w[l].assign(net->weights[l].size(), 0.0);
        grad_b[l].assign(net->biases[l].size(), 0.0);
      }
      for (int64_t k = cursor; k < batch_end; ++k) {
        const int64_t idx = order[k];
        std::vector<std::vector<double>> acts = {inputs[idx]};
        for (int l = 0; l < layers; ++l) {
          const int in = net->sizes[l];
          const int out = net->sizes[l + 1];
          std::vector<double> next(out);
          for (int o = 0; o < out; ++o) {
            double s = net->biases[l][o];
            for (int i = 0; i < in; ++i) {
              s += net->weights[l][static_cast<size_t>(o) * in + i] *
                   acts[l][i];
            }
            next[o] = l + 1 < layers ? std::max(0.0, s) : s;
          }
          acts.push_back(std::move(next));
        }
        const double err = acts.back()[0] - targets[idx];
        const double weight =
            err < 0.0 ? config.underestimation_penalty : 1.0;
        epoch_loss += weight * err * err;

        std::vector<double> delta = {2.0 * weight * err};
        for (int l = layers - 1; l >= 0; --l) {
          const int in = net->sizes[l];
          const int out = net->sizes[l + 1];
          for (int o = 0; o < out; ++o) {
            grad_b[l][o] += delta[o];
            for (int i = 0; i < in; ++i) {
              grad_w[l][static_cast<size_t>(o) * in + i] +=
                  delta[o] * acts[l][i];
            }
          }
          if (l == 0) break;
          std::vector<double> prev(in, 0.0);
          for (int i = 0; i < in; ++i) {
            if (acts[l][i] <= 0.0) continue;
            double s = 0.0;
            for (int o = 0; o < out; ++o) {
              s += net->weights[l][static_cast<size_t>(o) * in + i] *
                   delta[o];
            }
            prev[i] = s;
          }
          delta = std::move(prev);
        }
      }

      ++adam_t;
      const double bc1 = 1.0 - std::pow(0.9, static_cast<double>(adam_t));
      const double bc2 = 1.0 - std::pow(0.999, static_cast<double>(adam_t));
      const double inv_batch = 1.0 / static_cast<double>(batch_end - cursor);
      auto adam = [&](std::vector<double>* params, std::vector<double>* m,
                      std::vector<double>* v, const std::vector<double>& g) {
        for (size_t i = 0; i < params->size(); ++i) {
          const double gi = g[i] * inv_batch;
          (*m)[i] = 0.9 * (*m)[i] + (1.0 - 0.9) * gi;
          (*v)[i] = 0.999 * (*v)[i] + (1.0 - 0.999) * gi * gi;
          (*params)[i] -= config.learning_rate * ((*m)[i] / bc1) /
                          (std::sqrt((*v)[i] / bc2) + 1e-8);
        }
      };
      for (int l = 0; l < layers; ++l) {
        adam(&net->weights[l], &mw[l], &vw[l], grad_w[l]);
        adam(&net->biases[l], &mb[l], &vb[l], grad_b[l]);
      }
    }
    last_epoch_loss = epoch_loss / static_cast<double>(n);
  }
  return last_epoch_loss;
}

struct MlpTrainCase {
  std::vector<int> sizes;
  int64_t examples;
  int batch_size;
  double underestimation_penalty;
};

// Widths that are and are not multiples of a kernel's block, a 17-wide
// (frequency-profile) input, a 1-wide input, no hidden layer, and example
// counts that leave a partial last batch (of 22, 5, 1 and 3 examples).
const MlpTrainCase kMlpTrainCases[] = {
    {{17, 64, 64, 32, 16, 1}, 150, 64, 1.0},
    {{17, 13, 7, 1}, 37, 16, 4.0},
    {{1, 5, 1}, 10, 3, 4.0},
    {{6, 1}, 19, 8, 1.0},
};

TEST(MlpTest, TrainMatchesPerExampleReference) {
  for (const MlpTrainCase& c : kMlpTrainCases) {
    SCOPED_TRACE("input " + std::to_string(c.sizes.front()) + ", " +
                 std::to_string(c.examples) + " examples");
    Rng rng(static_cast<uint64_t>(c.examples) * 31 + c.sizes.size());
    std::vector<std::vector<double>> inputs(c.examples);
    std::vector<double> targets(c.examples);
    for (int64_t k = 0; k < c.examples; ++k) {
      // Mixed signs, so the ReLU gate closes on some units.
      for (int i = 0; i < c.sizes.front(); ++i) {
        inputs[k].push_back(rng.NextGaussian());
      }
      targets[k] = 2.0 * rng.NextGaussian();
    }
    Mlp::TrainConfig config;
    config.epochs = 5;
    config.batch_size = c.batch_size;
    config.learning_rate = 1e-2;
    config.underestimation_penalty = c.underestimation_penalty;
    config.seed = 29;

    Mlp mlp = Mlp::Create(c.sizes, 37);
    MlpParams reference = ParamsOf(mlp);
    const double loss = mlp.Train(inputs, targets, config);
    const double reference_loss =
        ReferenceTrain(&reference, inputs, targets, config);
    EXPECT_EQ(loss, reference_loss);

    const MlpParams trained = ParamsOf(mlp);
    ASSERT_EQ(trained.weights.size(), reference.weights.size());
    for (size_t l = 0; l < trained.weights.size(); ++l) {
      ASSERT_EQ(trained.weights[l].size(), reference.weights[l].size());
      for (size_t i = 0; i < trained.weights[l].size(); ++i) {
        EXPECT_EQ(trained.weights[l][i], reference.weights[l][i])
            << "layer " << l << " weight " << i;
      }
      ASSERT_EQ(trained.biases[l].size(), reference.biases[l].size());
      for (size_t o = 0; o < trained.biases[l].size(); ++o) {
        EXPECT_EQ(trained.biases[l][o], reference.biases[l][o])
            << "layer " << l << " bias " << o;
      }
    }
  }
}

// --- RBX ------------------------------------------------------------------------

TEST(RbxSyntheticTest, ExamplesSpanFamilies) {
  Rng rng(31);
  for (int family = 0; family < kRbxFamilies; ++family) {
    const NdvTrainingExample example =
        MakeSyntheticExample(family, 20000, 0.02, &rng);
    EXPECT_GT(example.true_ndv, 0) << "family " << family;
    EXPECT_LE(example.true_ndv, 20000);
    EXPECT_GT(example.frequencies.sample_size, 0);
    EXPECT_EQ(example.frequencies.population_size, 20000);
    // Sample distinct can never exceed true NDV.
    EXPECT_LE(example.frequencies.sample_distinct(), example.true_ndv);
  }
}

TEST(RbxSyntheticTest, NearUniqueFamilyHasHighNdv) {
  Rng rng(33);
  const NdvTrainingExample example =
      MakeSyntheticExample(4, 20000, 0.02, &rng);
  EXPECT_GT(example.true_ndv, 15000);
}

class RbxTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RbxTrainOptions options;
    options.population_sizes = {20000, 60000};
    options.sample_rates = {0.01, 0.03, 0.1};
    options.replicas = 3;
    options.epochs = 60;
    auto model = RbxModel::TrainWorkloadIndependent(options);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    model_ = new RbxModel(std::move(model).value());
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }
  static RbxModel* model_;
};

RbxModel* RbxTest::model_ = nullptr;

TEST_F(RbxTest, EstimatesWithinClampRange) {
  Rng rng(41);
  const NdvTrainingExample example =
      MakeSyntheticExample(1, 30000, 0.02, &rng);
  const double estimate = model_->EstimateNdv(example.frequencies);
  EXPECT_GE(estimate, example.frequencies.sample_distinct());
  EXPECT_LE(estimate, 30000.0);
}

TEST_F(RbxTest, BeatsNaiveScaleUpOnAverage) {
  // Q-error of RBX vs the naive d*N/n scale-up across held-out columns.
  Rng rng(43);
  double rbx_log_q = 0.0;
  double naive_log_q = 0.0;
  const int trials = 25;
  for (int i = 0; i < trials; ++i) {
    const NdvTrainingExample example =
        MakeSyntheticExample(i % kRbxFamilies, 40000, 0.02, &rng);
    const double truth = static_cast<double>(example.true_ndv);
    auto log_q = [&](double est) {
      const double e = std::max(est, 1.0);
      return std::fabs(std::log(e / truth));
    };
    rbx_log_q += log_q(model_->EstimateNdv(example.frequencies));
    naive_log_q += log_q(stats::ScaleUpEstimate(example.frequencies));
  }
  EXPECT_LT(rbx_log_q, naive_log_q);
}

TEST_F(RbxTest, WorkloadIndependence) {
  // One model, two very different distribution families — both must stay
  // within a sane error band without retraining.
  Rng rng(47);
  for (int family : {0, 2}) {
    const NdvTrainingExample example =
        MakeSyntheticExample(family, 50000, 0.05, &rng);
    const double estimate = model_->EstimateNdv(example.frequencies);
    const double truth = static_cast<double>(example.true_ndv);
    const double q = std::max(estimate / truth, truth / estimate);
    EXPECT_LT(q, 12.0) << "family " << family;
  }
}

TEST_F(RbxTest, SerializationRoundTrip) {
  BufferWriter writer;
  model_->Serialize(&writer);
  BufferReader reader(writer.buffer());
  auto restored = RbxModel::Deserialize(&reader);
  ASSERT_TRUE(restored.ok());
  Rng rng(51);
  const NdvTrainingExample example =
      MakeSyntheticExample(0, 10000, 0.05, &rng);
  EXPECT_EQ(restored.value().EstimateNdv(example.frequencies),
            model_->EstimateNdv(example.frequencies));
}

TEST_F(RbxTest, FineTuneImprovesProblematicColumns) {
  // High-NDV columns (family 4) are the documented weak case; fine-tuning
  // with the asymmetric penalty should not increase their mean log-Q error.
  Rng rng(53);
  std::vector<NdvTrainingExample> problematic;
  for (int i = 0; i < 20; ++i) {
    problematic.push_back(MakeSyntheticExample(4, 30000, 0.02, &rng));
  }
  auto error_on = [&](const RbxModel& model) {
    Rng eval_rng(57);
    double total = 0.0;
    for (int i = 0; i < 15; ++i) {
      const NdvTrainingExample example =
          MakeSyntheticExample(4, 30000, 0.02, &eval_rng);
      const double est = model.EstimateNdv(example.frequencies);
      total += std::fabs(std::log(
          std::max(est, 1.0) / static_cast<double>(example.true_ndv)));
    }
    return total;
  };

  RbxModel tuned = *model_;
  ASSERT_TRUE(tuned.FineTune(problematic, 61).ok());
  EXPECT_LE(error_on(tuned), error_on(*model_) * 1.05);
}

TEST_F(RbxTest, FineTuneRequiresExamples) {
  RbxModel tuned = *model_;
  EXPECT_FALSE(tuned.FineTune({}, 1).ok());
}

TEST(RbxTrainTest, TrainOnExplicitExamples) {
  Rng rng(63);
  std::vector<NdvTrainingExample> examples;
  for (int i = 0; i < 40; ++i) {
    examples.push_back(MakeSyntheticExample(i % kRbxFamilies, 10000, 0.05,
                                            &rng));
  }
  RbxTrainOptions options;
  options.epochs = 30;
  auto model = RbxModel::TrainOnExamples(examples, options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model.value().network().num_layers(), 7);  // paper architecture
  EXPECT_TRUE(model.value().Validate().ok());
}

TEST(RbxTrainTest, EmptyExamplesRejected) {
  RbxTrainOptions options;
  EXPECT_FALSE(RbxModel::TrainOnExamples({}, options).ok());
}

// Golden artifacts: example generation (Zipf draws, true-NDV counts) and
// training must reproduce these bytes exactly. A faster kernel that moves a
// single rounding changes the hash.
TEST(RbxGoldenTest, SmallGridArtifactPinned) {
  RbxTrainOptions options;
  options.population_sizes = {20000, 150000};
  options.sample_rates = {0.01, 0.1};
  options.replicas = 2;
  options.epochs = 6;
  options.seed = 7;
  auto model = RbxModel::TrainWorkloadIndependent(options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  BufferWriter writer;
  model.value().Serialize(&writer);
  EXPECT_EQ(testutil::Fnv1a64(writer.buffer()), 0x9e5e4e11923ff831ULL);
}

// The grid, epochs and seed ByteCard::Bootstrap trains with by default.
TEST(RbxGoldenTest, DefaultGridArtifactPinned) {
  RbxTrainOptions options;
  options.seed = 1234 ^ 0x5bd1e995;
  auto model = RbxModel::TrainWorkloadIndependent(options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  BufferWriter writer;
  model.value().Serialize(&writer);
  EXPECT_EQ(writer.buffer().size(), 130248u);
  EXPECT_EQ(testutil::Fnv1a64(writer.buffer()), 0xcdc0ab239e75cb82ULL);
}


// --- HyperLogLog NDV sketches ---------------------------------------------------

stats::HyperLogLog SketchOf(const std::vector<int64_t>& values,
                            int precision = 12) {
  stats::HyperLogLog sketch(precision);
  for (int64_t v : values) sketch.Add(v);
  return sketch;
}

std::string Bytes(const stats::HyperLogLog& sketch) {
  BufferWriter writer;
  sketch.Serialize(&writer);
  return writer.buffer();
}

TEST(HllSketchTest, MergeIsCommutative) {
  std::vector<int64_t> lo, hi;
  for (int64_t v = 0; v < 3000; ++v) (v % 3 == 0 ? lo : hi).push_back(v * 17);
  stats::HyperLogLog ab = SketchOf(lo);
  ab.Merge(SketchOf(hi));
  stats::HyperLogLog ba = SketchOf(hi);
  ba.Merge(SketchOf(lo));
  // Register-wise max is order-independent, so the merged states are
  // byte-identical, not just close.
  EXPECT_EQ(Bytes(ab), Bytes(ba));
  EXPECT_DOUBLE_EQ(ab.Estimate(), ba.Estimate());
}

TEST(HllSketchTest, MergeIsAssociative) {
  std::vector<std::vector<int64_t>> parts(3);
  Rng rng(1234);
  for (int i = 0; i < 5000; ++i)
    parts[i % 3].push_back(static_cast<int64_t>(rng.Uniform(100000)));
  const stats::HyperLogLog a = SketchOf(parts[0]);
  const stats::HyperLogLog b = SketchOf(parts[1]);
  const stats::HyperLogLog c = SketchOf(parts[2]);

  stats::HyperLogLog left = a;   // (a + b) + c
  left.Merge(b);
  left.Merge(c);
  stats::HyperLogLog bc = b;     // a + (b + c)
  bc.Merge(c);
  stats::HyperLogLog right = a;
  right.Merge(bc);
  EXPECT_EQ(Bytes(left), Bytes(right));
}

TEST(HllSketchTest, MergeIsIdempotent) {
  std::vector<int64_t> values;
  for (int64_t v = 0; v < 2000; ++v) values.push_back(v * v);
  stats::HyperLogLog sketch = SketchOf(values);
  const std::string before = Bytes(sketch);
  sketch.Merge(sketch);
  EXPECT_EQ(Bytes(sketch), before);
}

TEST(HllSketchTest, ErrorBoundOnUniformColumn) {
  // p=12 -> 4096 registers -> ~1.6% standard error; 5% is > 3 sigma.
  stats::HyperLogLog sketch(12);
  constexpr int64_t kDistinct = 20000;
  for (int64_t v = 0; v < kDistinct; ++v)
    for (int rep = 0; rep < 3; ++rep) sketch.Add(v);
  EXPECT_NEAR(sketch.Estimate(), static_cast<double>(kDistinct),
              0.05 * kDistinct);
}

TEST(HllSketchTest, ErrorBoundOnSkewedColumn) {
  // Heavy-hitter zipf-ish draw: estimate must track the exact distinct set,
  // not the row count.
  Rng rng(99);
  stats::HyperLogLog sketch(12);
  std::set<int64_t> exact;
  for (int i = 0; i < 50000; ++i) {
    const int64_t v = static_cast<int64_t>(
        5000.0 * std::pow(rng.NextDouble(), 4.0));  // skew toward 0
    sketch.Add(v);
    exact.insert(v);
  }
  const double truth = static_cast<double>(exact.size());
  EXPECT_NEAR(sketch.Estimate(), truth, 0.05 * truth);
}

TEST(HllSketchTest, SerializationRoundTripPreservesStateAndMerges) {
  std::vector<int64_t> values;
  for (int64_t v = 0; v < 4000; ++v) values.push_back(v * 31 + 7);
  const stats::HyperLogLog original = SketchOf(values, 10);

  const std::string bytes = Bytes(original);
  BufferReader reader(bytes);
  auto restored = stats::HyperLogLog::Deserialize(&reader);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().precision(), 10);
  EXPECT_DOUBLE_EQ(restored.value().Estimate(), original.Estimate());

  // The revived sketch keeps merging like the original.
  std::vector<int64_t> more;
  for (int64_t v = 0; v < 4000; ++v) more.push_back(-v * 13 - 1);
  stats::HyperLogLog via_restore = std::move(restored).value();
  via_restore.Merge(SketchOf(more, 10));
  stats::HyperLogLog direct = original;
  direct.Merge(SketchOf(more, 10));
  EXPECT_EQ(Bytes(via_restore), Bytes(direct));
}

TEST(HllSketchTest, CatalogSeedsScalarColumnsAndReportsAbsentAsNegative) {
  minihouse::Table table(
      "t", minihouse::TableSchema({{"k", minihouse::DataType::kInt64},
                                   {"v", minihouse::DataType::kInt64}}));
  for (int64_t i = 0; i < 1000; ++i) {
    table.mutable_column(0)->AppendInt(i);       // 1000 distinct
    table.mutable_column(1)->AppendInt(i % 25);  // 25 distinct
  }
  ASSERT_TRUE(table.Seal().ok());

  NdvSketchCatalog catalog;
  catalog.SeedTable(table);
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_NEAR(catalog.Estimate("t", 0), 1000.0, 60.0);
  EXPECT_NEAR(catalog.Estimate("t", 1), 25.0, 2.0);
  EXPECT_LT(catalog.Estimate("t", 7), 0.0);
  EXPECT_LT(catalog.Estimate("absent", 0), 0.0);
  EXPECT_EQ(catalog.Find("t", 7), nullptr);
  ASSERT_NE(catalog.FindMutable("t", 1), nullptr);
}

}  // namespace
}  // namespace bytecard::cardest
