#include "cardest/ndv/mlp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace bytecard::cardest {

namespace {
constexpr uint32_t kMlpFormatVersion = 1;

// Dot4's lane count: Train() runs four examples' (or weights') sums side by
// side.
constexpr int64_t kLanes = 4;

// Four dot products that share one operand, each summed in ascending order
// from `init`: lane j computes init + x[0] * y_j[0] + x[1] * y_j[1] + ...
// into out[j], where term t reads x[t * x_step] and
// y[j * lane_gap + t * y_step]. The lanes' add chains are independent, so
// their adds overlap where a single dot product waits on each one in turn.
void Dot4(double init, const double* x, int64_t x_step, const double* y,
          int64_t y_step, int64_t lane_gap, int64_t len, double* out) {
  const double* y1 = y + lane_gap;
  const double* y2 = y1 + lane_gap;
  const double* y3 = y2 + lane_gap;
  double s0 = init;
  double s1 = init;
  double s2 = init;
  double s3 = init;
  for (int64_t t = 0; t < len; ++t) {
    const double xt = x[t * x_step];
    const int64_t at = t * y_step;
    s0 += xt * y[at];
    s1 += xt * y1[at];
    s2 += xt * y2[at];
    s3 += xt * y3[at];
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}
}  // namespace

Mlp Mlp::Create(const std::vector<int>& layer_sizes, uint64_t seed) {
  BC_CHECK(layer_sizes.size() >= 2);
  BC_CHECK(layer_sizes.back() == 1);
  Mlp mlp;
  mlp.layer_sizes_ = layer_sizes;
  Rng rng(seed);
  for (size_t l = 0; l + 1 < layer_sizes.size(); ++l) {
    const int in = layer_sizes[l];
    const int out = layer_sizes[l + 1];
    const double scale = std::sqrt(6.0 / static_cast<double>(in + out));
    std::vector<double> w(static_cast<size_t>(in) * out);
    for (double& x : w) x = (rng.NextDouble() * 2.0 - 1.0) * scale;
    mlp.weights_.push_back(std::move(w));
    mlp.biases_.emplace_back(out, 0.0);
  }
  return mlp;
}

double Mlp::Predict(const std::vector<double>& input) const {
  BC_DCHECK(static_cast<int>(input.size()) == input_dim());
  std::vector<double> act = input;
  std::vector<double> next;
  for (size_t l = 0; l < weights_.size(); ++l) {
    const int in = layer_sizes_[l];
    const int out = layer_sizes_[l + 1];
    next.assign(out, 0.0);
    const double* w = weights_[l].data();
    for (int o = 0; o < out; ++o) {
      double s = biases_[l][o];
      const double* row = w + static_cast<size_t>(o) * in;
      for (int i = 0; i < in; ++i) s += row[i] * act[i];
      // ReLU on hidden layers, identity on the output.
      next[o] = (l + 1 < weights_.size()) ? std::max(0.0, s) : s;
    }
    act.swap(next);
  }
  return act[0];
}

double Mlp::Train(const std::vector<std::vector<double>>& inputs,
                  const std::vector<double>& targets,
                  const TrainConfig& config) {
  BC_CHECK(inputs.size() == targets.size());
  BC_CHECK(config.batch_size > 0);
  for (const std::vector<double>& x : inputs) {
    BC_CHECK(static_cast<int>(x.size()) == input_dim());
  }
  if (inputs.empty()) return 0.0;
  const int64_t n = static_cast<int64_t>(inputs.size());
  const int num_weight_layers = static_cast<int>(weights_.size());

  // Adam state.
  std::vector<std::vector<double>> mw(num_weight_layers), vw(num_weight_layers);
  std::vector<std::vector<double>> mb(num_weight_layers), vb(num_weight_layers);
  for (int l = 0; l < num_weight_layers; ++l) {
    mw[l].assign(weights_[l].size(), 0.0);
    vw[l].assign(weights_[l].size(), 0.0);
    mb[l].assign(biases_[l].size(), 0.0);
    vb[l].assign(biases_[l].size(), 0.0);
  }
  constexpr double kBeta1 = 0.9;
  constexpr double kBeta2 = 0.999;
  constexpr double kEps = 1e-8;
  int64_t adam_t = 0;

  Rng rng(config.seed);
  std::vector<int64_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  // A minibatch's activations and deltas, unit-major: row u of acts[l] holds
  // unit u of layer l for each example of the batch, in batch order, and
  // deltas[l] does the same for layer l's outputs. Rows are `stride` wide,
  // the batch rounded up to whole lanes. Columns past the batch's last
  // example hold zeros or an earlier batch's values, which the lanes carry
  // along but no gradient reads.
  const int64_t stride =
      (std::min<int64_t>(n, config.batch_size) + kLanes - 1) / kLanes * kLanes;
  std::vector<std::vector<double>> acts(layer_sizes_.size());
  std::vector<std::vector<double>> deltas(num_weight_layers);
  for (size_t l = 0; l < layer_sizes_.size(); ++l) {
    acts[l].assign(static_cast<size_t>(layer_sizes_[l]) * stride, 0.0);
    if (l > 0) deltas[l - 1].assign(acts[l].size(), 0.0);
  }
  std::vector<std::vector<double>> grad_w(num_weight_layers);
  std::vector<std::vector<double>> grad_b(num_weight_layers);
  for (int l = 0; l < num_weight_layers; ++l) {
    grad_w[l].resize(weights_[l].size());
    grad_b[l].resize(biases_[l].size());
  }

  double last_epoch_loss = 0.0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    int64_t cursor = 0;
    while (cursor < n) {
      const int64_t batch_end =
          std::min<int64_t>(n, cursor + config.batch_size);
      const int64_t batch = batch_end - cursor;
      const int64_t cols = (batch + kLanes - 1) / kLanes * kLanes;

      for (int64_t k = 0; k < batch; ++k) {
        const std::vector<double>& x = inputs[order[cursor + k]];
        for (size_t i = 0; i < x.size(); ++i) acts[0][i * stride + k] = x[i];
      }

      // Forward, kLanes examples at a time: each output's sum starts from
      // its bias and adds the inputs in ascending order.
      for (int l = 0; l < num_weight_layers; ++l) {
        const int in = layer_sizes_[l];
        const int out = layer_sizes_[l + 1];
        const bool hidden = l + 1 < num_weight_layers;
        for (int o = 0; o < out; ++o) {
          const double* row = weights_[l].data() + static_cast<size_t>(o) * in;
          double* z = acts[l + 1].data() + o * stride;
          for (int64_t k = 0; k < cols; k += kLanes) {
            Dot4(biases_[l][o], row, 1, acts[l].data() + k, stride, 1, in,
                 z + k);
          }
          if (hidden) {
            for (int64_t k = 0; k < cols; ++k) z[k] = std::max(0.0, z[k]);
          }
        }
      }

      // Loss, and the output delta, in example order.
      double* out_delta = deltas.back().data();
      for (int64_t k = 0; k < batch; ++k) {
        const double err = acts.back()[k] - targets[order[cursor + k]];
        const double weight =
            err < 0.0 ? config.underestimation_penalty : 1.0;
        epoch_loss += weight * err * err;
        out_delta[k] = 2.0 * weight * err;
      }

      // Backward. Each gradient sums the batch in example order from 0.0;
      // each back-propagated delta sums the outputs in ascending order from
      // 0.0 and is zero where the ReLU gate is closed.
      for (int l = num_weight_layers - 1; l >= 0; --l) {
        const int in = layer_sizes_[l];
        const int out = layer_sizes_[l + 1];
        const double* a = acts[l].data();
        for (int o = 0; o < out; ++o) {
          const double* d = deltas[l].data() + o * stride;
          double gb = 0.0;
          for (int64_t k = 0; k < batch; ++k) gb += d[k];
          grad_b[l][o] = gb;
          double* grow = grad_w[l].data() + static_cast<size_t>(o) * in;
          int i = 0;
          for (; i + kLanes <= in; i += kLanes) {
            Dot4(0.0, d, 1, a + i * stride, 1, stride, batch, grow + i);
          }
          for (; i < in; ++i) {
            double g = 0.0;
            for (int64_t k = 0; k < batch; ++k) g += d[k] * a[i * stride + k];
            grow[i] = g;
          }
        }
        if (l == 0) break;
        double* prev = deltas[l - 1].data();
        for (int i = 0; i < in; ++i) {
          double* p = prev + i * stride;
          for (int64_t k = 0; k < cols; k += kLanes) {
            Dot4(0.0, weights_[l].data() + i, in, deltas[l].data() + k, stride,
                 1, out, p + k);
          }
          for (int64_t k = 0; k < cols; ++k) {
            if (a[i * stride + k] <= 0.0) p[k] = 0.0;  // ReLU gate
          }
        }
      }

      // Adam update on batch means.
      ++adam_t;
      const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(adam_t));
      const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(adam_t));
      const double inv_batch = 1.0 / static_cast<double>(batch);
      for (int l = 0; l < num_weight_layers; ++l) {
        for (size_t i = 0; i < weights_[l].size(); ++i) {
          const double g = grad_w[l][i] * inv_batch;
          mw[l][i] = kBeta1 * mw[l][i] + (1.0 - kBeta1) * g;
          vw[l][i] = kBeta2 * vw[l][i] + (1.0 - kBeta2) * g * g;
          weights_[l][i] -= config.learning_rate * (mw[l][i] / bc1) /
                            (std::sqrt(vw[l][i] / bc2) + kEps);
        }
        for (size_t i = 0; i < biases_[l].size(); ++i) {
          const double g = grad_b[l][i] * inv_batch;
          mb[l][i] = kBeta1 * mb[l][i] + (1.0 - kBeta1) * g;
          vb[l][i] = kBeta2 * vb[l][i] + (1.0 - kBeta2) * g * g;
          biases_[l][i] -= config.learning_rate * (mb[l][i] / bc1) /
                           (std::sqrt(vb[l][i] / bc2) + kEps);
        }
      }
      cursor = batch_end;
    }
    last_epoch_loss = epoch_loss / static_cast<double>(n);
  }
  return last_epoch_loss;
}

int64_t Mlp::num_parameters() const {
  int64_t total = 0;
  for (size_t l = 0; l < weights_.size(); ++l) {
    total += static_cast<int64_t>(weights_[l].size() + biases_[l].size());
  }
  return total;
}

Status Mlp::ValidateWeights() const {
  for (const auto& layer : weights_) {
    for (double w : layer) {
      if (!std::isfinite(w)) {
        return Status::InvalidModel("MLP weight is not finite");
      }
    }
  }
  for (const auto& layer : biases_) {
    for (double b : layer) {
      if (!std::isfinite(b)) {
        return Status::InvalidModel("MLP bias is not finite");
      }
    }
  }
  return Status::Ok();
}

void Mlp::Serialize(BufferWriter* writer) const {
  writer->WriteU32(kMlpFormatVersion);
  writer->WriteU64(layer_sizes_.size());
  for (int s : layer_sizes_) writer->WriteI64(s);
  for (size_t l = 0; l < weights_.size(); ++l) {
    writer->WriteDoubleVec(weights_[l]);
    writer->WriteDoubleVec(biases_[l]);
  }
}

Result<Mlp> Mlp::Deserialize(BufferReader* reader) {
  uint32_t version = 0;
  BC_RETURN_IF_ERROR(reader->ReadU32(&version));
  if (version != kMlpFormatVersion) {
    return Status::InvalidModel("unsupported MLP artifact version");
  }
  Mlp mlp;
  uint64_t num_sizes = 0;
  BC_RETURN_IF_ERROR(reader->ReadCount(&num_sizes, sizeof(int64_t)));
  if (num_sizes < 2) return Status::InvalidModel("MLP needs >= 2 layers");
  mlp.layer_sizes_.resize(num_sizes);
  for (auto& s : mlp.layer_sizes_) {
    int64_t v = 0;
    BC_RETURN_IF_ERROR(reader->ReadI64(&v));
    s = static_cast<int>(v);
    if (s <= 0) return Status::InvalidModel("MLP layer size must be > 0");
  }
  mlp.weights_.resize(num_sizes - 1);
  mlp.biases_.resize(num_sizes - 1);
  for (size_t l = 0; l + 1 < num_sizes; ++l) {
    BC_RETURN_IF_ERROR(reader->ReadDoubleVec(&mlp.weights_[l]));
    BC_RETURN_IF_ERROR(reader->ReadDoubleVec(&mlp.biases_[l]));
    const size_t expected_w = static_cast<size_t>(mlp.layer_sizes_[l]) *
                              mlp.layer_sizes_[l + 1];
    if (mlp.weights_[l].size() != expected_w ||
        mlp.biases_[l].size() !=
            static_cast<size_t>(mlp.layer_sizes_[l + 1])) {
      return Status::InvalidModel("MLP weight shape mismatch");
    }
  }
  return mlp;
}

}  // namespace bytecard::cardest
