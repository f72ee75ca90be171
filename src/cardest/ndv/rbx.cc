#include "cardest/ndv/rbx.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"

namespace bytecard::cardest {

namespace {
constexpr uint32_t kRbxFormatVersion = 1;

// Seven weight layers (paper §4.3: "seven-network layer" architecture).
const std::vector<int>& RbxLayerSizes() {
  static const std::vector<int>* kSizes = new std::vector<int>{
      kFrequencyProfileDim, 64, 64, 64, 64, 32, 16, 1};
  return *kSizes;
}

double TargetOf(const NdvTrainingExample& example) {
  const double d =
      std::max<int64_t>(1, example.frequencies.sample_distinct());
  const double big_d = std::max<int64_t>(1, example.true_ndv);
  return std::log(big_d / d);
}

}  // namespace

NdvTrainingExample MakeSyntheticExample(int family, int64_t population_size,
                                        double sample_rate, Rng* rng) {
  NdvTrainingExample example;
  const int64_t n = population_size;

  // Build the population implicitly: draw N values from the family.
  std::vector<int64_t> population(n);
  switch (family % kRbxFamilies) {
    case 0: {  // uniform over D values
      const int64_t domain = std::max<int64_t>(
          2, static_cast<int64_t>(std::pow(
                 10.0, 1.0 + rng->NextDouble() * 4.0)));  // D in [10, 1e5)
      for (auto& v : population) {
        v = static_cast<int64_t>(rng->Uniform(domain));
      }
      break;
    }
    case 1:
    case 2: {  // zipf skew 0.8 / 1.3
      const double skew = family % kRbxFamilies == 1 ? 0.8 : 1.3;
      const int64_t domain = std::max<int64_t>(
          2, static_cast<int64_t>(std::pow(10.0, 2.0 + rng->NextDouble() * 3.0)));
      ZipfDistribution zipf(static_cast<uint64_t>(domain), skew);
      for (auto& v : population) {
        v = static_cast<int64_t>(zipf.Sample(rng));
      }
      break;
    }
    case 3: {  // heavy hitters: a few huge values + a uniform long tail
      const int64_t heavy = 1 + static_cast<int64_t>(rng->Uniform(8));
      const int64_t tail_domain =
          std::max<int64_t>(2, n / (2 + static_cast<int64_t>(rng->Uniform(20))));
      for (auto& v : population) {
        if (rng->NextDouble() < 0.6) {
          v = static_cast<int64_t>(rng->Uniform(heavy));
        } else {
          v = heavy + static_cast<int64_t>(rng->Uniform(tail_domain));
        }
      }
      break;
    }
    default: {  // near-unique column (D close to N): the hard case §5.2.2
      const double dup_rate = rng->NextDouble() * 0.1;
      int64_t next = 0;
      for (auto& v : population) {
        if (rng->NextDouble() < dup_rate && next > 0) {
          v = static_cast<int64_t>(rng->Uniform(next));
        } else {
          v = next++;
        }
      }
      break;
    }
  }

  // True NDV, counted in a bitmap: every family draws non-negative values
  // below max(N, 1e5) + 8, so the bitmap stays under 20 KB.
  const auto [min_value, max_value] =
      std::minmax_element(population.begin(), population.end());
  BC_CHECK(*min_value >= 0);
  std::vector<uint64_t> seen(static_cast<size_t>(*max_value / 64 + 1), 0);
  for (int64_t v : population) seen[v >> 6] |= uint64_t{1} << (v & 63);
  example.true_ndv = 0;
  for (uint64_t word : seen) example.true_ndv += std::popcount(word);

  // Uniform sample without replacement.
  int64_t want = std::max<int64_t>(
      1, static_cast<int64_t>(sample_rate * static_cast<double>(n)));
  want = std::min(want, n);
  for (int64_t i = 0; i < want; ++i) {
    const int64_t j = i + static_cast<int64_t>(rng->Uniform(n - i));
    std::swap(population[i], population[j]);
  }
  population.resize(want);
  example.frequencies = stats::ComputeFrequencies(population, n);
  return example;
}

Result<RbxModel> RbxModel::TrainOnExamples(
    const std::vector<NdvTrainingExample>& examples,
    const RbxTrainOptions& options) {
  if (examples.empty()) {
    return Status::InvalidArgument("RBX training needs examples");
  }
  RbxModel model;
  model.network_ = Mlp::Create(RbxLayerSizes(), options.seed);

  std::vector<std::vector<double>> inputs;
  std::vector<double> targets;
  inputs.reserve(examples.size());
  targets.reserve(examples.size());
  for (const NdvTrainingExample& example : examples) {
    inputs.push_back(BuildFrequencyProfile(example.frequencies));
    targets.push_back(TargetOf(example));
  }

  Mlp::TrainConfig config;
  config.learning_rate = options.learning_rate;
  config.epochs = options.epochs;
  config.seed = options.seed;
  model.network_.Train(inputs, targets, config);
  BC_RETURN_IF_ERROR(model.network_.ValidateWeights());
  return model;
}

Result<RbxModel> RbxModel::TrainWorkloadIndependent(
    const RbxTrainOptions& options) {
  Rng rng(options.seed);
  std::vector<int> families = options.families;
  if (families.empty()) {
    for (int family = 0; family < kRbxFamilies; ++family) {
      families.push_back(family);
    }
  }
  std::vector<NdvTrainingExample> examples;
  for (int64_t n : options.population_sizes) {
    for (double rate : options.sample_rates) {
      for (int family : families) {
        for (int r = 0; r < options.replicas; ++r) {
          examples.push_back(MakeSyntheticExample(family, n, rate, &rng));
        }
      }
    }
  }
  return TrainOnExamples(examples, options);
}

double RbxModel::EstimateNdv(
    const stats::SampleFrequencies& frequencies) const {
  const double d =
      static_cast<double>(std::max<int64_t>(1, frequencies.sample_distinct()));
  if (network_.input_dim() == 0) return d;
  const double log_ratio =
      network_.Predict(BuildFrequencyProfile(frequencies));
  const double estimate = d * std::exp(std::max(0.0, log_ratio));
  const double upper =
      static_cast<double>(std::max<int64_t>(1, frequencies.population_size));
  return std::clamp(estimate, d, upper);
}

Status RbxModel::FineTune(const std::vector<NdvTrainingExample>& problematic,
                          uint64_t seed) {
  if (problematic.empty()) {
    return Status::InvalidArgument("fine-tune needs problematic examples");
  }
  // Augment with synthetic high-NDV columns (family 4) so the column-specific
  // adjustment does not destroy general behaviour (paper §5.2.2).
  Rng rng(seed);
  std::vector<NdvTrainingExample> dataset = problematic;
  const int synthetic = static_cast<int>(problematic.size()) * 2;
  for (int i = 0; i < synthetic; ++i) {
    dataset.push_back(
        MakeSyntheticExample(4, 50000, 0.01 + rng.NextDouble() * 0.05, &rng));
  }

  std::vector<std::vector<double>> inputs;
  std::vector<double> targets;
  for (const NdvTrainingExample& example : dataset) {
    inputs.push_back(BuildFrequencyProfile(example.frequencies));
    targets.push_back(TargetOf(example));
  }

  Mlp::TrainConfig config;
  config.learning_rate = 1e-4;  // reduced LR: slow, careful convergence
  config.epochs = 40;
  config.underestimation_penalty = 4.0;  // punish underestimates harder
  config.seed = seed;
  network_.Train(inputs, targets, config);
  return network_.ValidateWeights();
}

void RbxModel::Serialize(BufferWriter* writer) const {
  writer->WriteU32(kRbxFormatVersion);
  network_.Serialize(writer);
}

Result<RbxModel> RbxModel::Deserialize(BufferReader* reader) {
  uint32_t version = 0;
  BC_RETURN_IF_ERROR(reader->ReadU32(&version));
  if (version != kRbxFormatVersion) {
    return Status::InvalidModel("unsupported RBX artifact version");
  }
  RbxModel model;
  BC_ASSIGN_OR_RETURN(model.network_, Mlp::Deserialize(reader));
  return model;
}

}  // namespace bytecard::cardest
