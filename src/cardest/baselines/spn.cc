#include "cardest/baselines/spn.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "cardest/bayes/chow_liu.h"
#include "common/logging.h"
#include "common/rng.h"

namespace bytecard::cardest {

namespace {
constexpr uint32_t kSpnFormatVersion = 1;
}  // namespace

Result<SpnModel> SpnModel::Train(const minihouse::Table& table,
                                 const TrainOptions& options) {
  SpnModel model;
  model.row_count_ = table.num_rows();

  // Variables: all supported columns.
  for (int c = 0; c < table.num_columns(); ++c) {
    if (table.schema().column(c).type != minihouse::DataType::kArray) {
      model.columns_.push_back(c);
    }
  }
  if (model.columns_.empty()) {
    return Status::InvalidArgument("SPN has no trainable columns");
  }
  const int num_vars = static_cast<int>(model.columns_.size());

  // Discretize everything once.
  std::vector<std::vector<int>> data(num_vars);
  model.discretizers_.resize(num_vars);
  for (int v = 0; v < num_vars; ++v) {
    const minihouse::Column& col = table.column(model.columns_[v]);
    model.discretizers_[v] =
        Discretizer::BuildFromColumn(col, options.max_bins);
    data[v].reserve(col.num_rows());
    for (int64_t i = 0; i < col.num_rows(); ++i) {
      data[v].push_back(model.discretizers_[v].BinOf(col.NumericAt(i)));
    }
  }

  Rng rng(options.seed);

  // Recursive structure learning over (row subset, variable subset).
  std::function<int(const std::vector<int64_t>&, const std::vector<int>&,
                    int)>
      build = [&](const std::vector<int64_t>& rows,
                  const std::vector<int>& vars, int depth) -> int {
    auto make_leaf = [&](int var) {
      Node leaf;
      leaf.kind = NodeKind::kLeaf;
      leaf.column = var;
      const int nb = model.discretizers_[var].num_bins();
      leaf.distribution.assign(nb, 0.0);
      for (int64_t r : rows) leaf.distribution[data[var][r]] += 1.0;
      const double denom = static_cast<double>(rows.size()) + 1e-3 * nb;
      for (double& p : leaf.distribution) p = (p + 1e-3) / denom;
      model.nodes_.push_back(std::move(leaf));
      return static_cast<int>(model.nodes_.size()) - 1;
    };

    auto product_of_leaves = [&]() {
      if (vars.size() == 1) return make_leaf(vars[0]);
      Node product;
      product.kind = NodeKind::kProduct;
      for (int var : vars) product.children.push_back(make_leaf(var));
      model.nodes_.push_back(std::move(product));
      return static_cast<int>(model.nodes_.size()) - 1;
    };

    if (vars.size() == 1) return make_leaf(vars[0]);
    if (static_cast<int64_t>(rows.size()) < options.min_instances ||
        depth >= options.max_depth) {
      return product_of_leaves();
    }

    // Try a product split: connected components of the MI graph over `vars`
    // restricted to `rows`.
    {
      const int k = static_cast<int>(vars.size());
      std::vector<std::vector<int>> local(k);
      for (int i = 0; i < k; ++i) {
        local[i].reserve(rows.size());
        for (int64_t r : rows) local[i].push_back(data[vars[i]][r]);
      }
      std::vector<int> component(k, -1);
      int num_components = 0;
      for (int i = 0; i < k; ++i) {
        if (component[i] >= 0) continue;
        // BFS over MI edges.
        std::vector<int> queue = {i};
        component[i] = num_components;
        for (size_t qi = 0; qi < queue.size(); ++qi) {
          const int a = queue[qi];
          for (int b = 0; b < k; ++b) {
            if (component[b] >= 0) continue;
            const double mi = MutualInformation(
                local[a], local[b], model.discretizers_[vars[a]].num_bins(),
                model.discretizers_[vars[b]].num_bins());
            if (mi > options.mi_threshold) {
              component[b] = num_components;
              queue.push_back(b);
            }
          }
        }
        ++num_components;
      }
      if (num_components > 1) {
        Node product;
        product.kind = NodeKind::kProduct;
        for (int comp = 0; comp < num_components; ++comp) {
          std::vector<int> sub_vars;
          for (int i = 0; i < k; ++i) {
            if (component[i] == comp) sub_vars.push_back(vars[i]);
          }
          product.children.push_back(build(rows, sub_vars, depth + 1));
        }
        model.nodes_.push_back(std::move(product));
        return static_cast<int>(model.nodes_.size()) - 1;
      }
    }

    // Otherwise, a sum split: 2-means over normalized bin coordinates.
    {
      const int k = static_cast<int>(vars.size());
      auto coord = [&](int64_t row, int vi) {
        const int nb = model.discretizers_[vars[vi]].num_bins();
        return nb <= 1 ? 0.0
                       : static_cast<double>(data[vars[vi]][row]) /
                             static_cast<double>(nb - 1);
      };
      // Initialize centroids from two random rows.
      std::vector<double> c0(k);
      std::vector<double> c1(k);
      const int64_t r0 = rows[rng.Uniform(rows.size())];
      const int64_t r1 = rows[rng.Uniform(rows.size())];
      for (int i = 0; i < k; ++i) {
        c0[i] = coord(r0, i);
        c1[i] = coord(r1, i);
      }
      std::vector<uint8_t> assign(rows.size(), 0);
      for (int iter = 0; iter < 5; ++iter) {
        for (size_t ri = 0; ri < rows.size(); ++ri) {
          double d0 = 0.0;
          double d1 = 0.0;
          for (int i = 0; i < k; ++i) {
            const double x = coord(rows[ri], i);
            d0 += (x - c0[i]) * (x - c0[i]);
            d1 += (x - c1[i]) * (x - c1[i]);
          }
          assign[ri] = d1 < d0 ? 1 : 0;
        }
        std::vector<double> s0(k, 0.0);
        std::vector<double> s1(k, 0.0);
        int64_t n0 = 0;
        int64_t n1 = 0;
        for (size_t ri = 0; ri < rows.size(); ++ri) {
          for (int i = 0; i < k; ++i) {
            (assign[ri] ? s1 : s0)[i] += coord(rows[ri], i);
          }
          (assign[ri] ? n1 : n0) += 1;
        }
        if (n0 == 0 || n1 == 0) break;
        for (int i = 0; i < k; ++i) {
          c0[i] = s0[i] / static_cast<double>(n0);
          c1[i] = s1[i] / static_cast<double>(n1);
        }
      }
      std::vector<int64_t> rows0;
      std::vector<int64_t> rows1;
      for (size_t ri = 0; ri < rows.size(); ++ri) {
        (assign[ri] ? rows1 : rows0).push_back(rows[ri]);
      }
      if (rows0.empty() || rows1.empty()) {
        // Degenerate clustering (identical coordinates or unlucky seeds):
        // split in half so structure learning keeps making progress, as
        // LearnSPN implementations do.
        rows0.assign(rows.begin(), rows.begin() + rows.size() / 2);
        rows1.assign(rows.begin() + rows.size() / 2, rows.end());
        if (rows0.empty() || rows1.empty()) return product_of_leaves();
      }
      Node sum;
      sum.kind = NodeKind::kSum;
      sum.weights = {
          static_cast<double>(rows0.size()) / static_cast<double>(rows.size()),
          static_cast<double>(rows1.size()) /
              static_cast<double>(rows.size())};
      const int child0 = build(rows0, vars, depth + 1);
      const int child1 = build(rows1, vars, depth + 1);
      sum.children = {child0, child1};
      model.nodes_.push_back(std::move(sum));
      return static_cast<int>(model.nodes_.size()) - 1;
    }
  };

  std::vector<int64_t> all_rows(table.num_rows());
  std::iota(all_rows.begin(), all_rows.end(), 0);
  std::vector<int> all_vars(num_vars);
  std::iota(all_vars.begin(), all_vars.end(), 0);
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("SPN training needs rows");
  }
  model.root_ = build(all_rows, all_vars, 0);
  return model;
}

double SpnModel::Evaluate(
    int node, const std::vector<std::vector<double>>& evidence) const {
  const Node& n = nodes_[node];
  switch (n.kind) {
    case NodeKind::kLeaf: {
      const std::vector<double>& w = evidence[n.column];
      if (w.empty()) return 1.0;  // unconstrained variable integrates to 1
      double p = 0.0;
      for (size_t b = 0; b < n.distribution.size(); ++b) {
        p += n.distribution[b] * w[b];
      }
      return p;
    }
    case NodeKind::kProduct: {
      double p = 1.0;
      for (int c : n.children) p *= Evaluate(c, evidence);
      return p;
    }
    case NodeKind::kSum: {
      double p = 0.0;
      for (size_t i = 0; i < n.children.size(); ++i) {
        p += n.weights[i] * Evaluate(n.children[i], evidence);
      }
      return p;
    }
  }
  return 0.0;
}

double SpnModel::EstimateSelectivity(
    const minihouse::Conjunction& filters) const {
  if (root_ < 0) return 1.0;
  std::vector<std::vector<double>> evidence(columns_.size());
  for (const minihouse::ColumnPredicate& pred : filters) {
    for (size_t v = 0; v < columns_.size(); ++v) {
      if (columns_[v] != pred.column) continue;
      std::vector<double> w = discretizers_[v].PredicateWeights(pred);
      if (evidence[v].empty()) {
        evidence[v] = std::move(w);
      } else {
        for (size_t b = 0; b < w.size(); ++b) evidence[v][b] *= w[b];
      }
    }
  }
  return std::clamp(Evaluate(root_, evidence), 0.0, 1.0);
}

double SpnModel::EstimateCount(const minihouse::Conjunction& filters) const {
  return EstimateSelectivity(filters) * static_cast<double>(row_count_);
}

void SpnModel::Serialize(BufferWriter* writer) const {
  writer->WriteU32(kSpnFormatVersion);
  writer->WriteI64(row_count_);
  writer->WriteI64(root_);
  writer->WriteU64(columns_.size());
  for (size_t v = 0; v < columns_.size(); ++v) {
    writer->WriteI64(columns_[v]);
    discretizers_[v].Serialize(writer);
  }
  writer->WriteU64(nodes_.size());
  for (const Node& n : nodes_) {
    writer->WriteU32(static_cast<uint32_t>(n.kind));
    writer->WriteI64(n.column);
    std::vector<int64_t> children(n.children.begin(), n.children.end());
    writer->WriteI64Vec(children);
    writer->WriteDoubleVec(n.weights);
    writer->WriteDoubleVec(n.distribution);
  }
}

Result<SpnModel> SpnModel::Deserialize(BufferReader* reader) {
  uint32_t version = 0;
  BC_RETURN_IF_ERROR(reader->ReadU32(&version));
  if (version != kSpnFormatVersion) {
    return Status::InvalidModel("unsupported SPN artifact version");
  }
  SpnModel model;
  int64_t root = 0;
  BC_RETURN_IF_ERROR(reader->ReadI64(&model.row_count_));
  BC_RETURN_IF_ERROR(reader->ReadI64(&root));
  model.root_ = static_cast<int>(root);
  uint64_t num_vars = 0;
  // A variable: its column and its discretizer's bin count.
  BC_RETURN_IF_ERROR(reader->ReadCount(&num_vars, 2 * sizeof(uint64_t)));
  model.columns_.resize(num_vars);
  model.discretizers_.resize(num_vars);
  for (uint64_t v = 0; v < num_vars; ++v) {
    int64_t column = 0;
    BC_RETURN_IF_ERROR(reader->ReadI64(&column));
    model.columns_[v] = static_cast<int>(column);
    BC_ASSIGN_OR_RETURN(model.discretizers_[v],
                        Discretizer::Deserialize(reader));
  }
  uint64_t num_nodes = 0;
  // A node: kind, column, then its three vector counts.
  BC_RETURN_IF_ERROR(reader->ReadCount(
      &num_nodes, sizeof(uint32_t) + 4 * sizeof(uint64_t)));
  model.nodes_.resize(num_nodes);
  for (auto& n : model.nodes_) {
    uint32_t kind = 0;
    int64_t column = 0;
    BC_RETURN_IF_ERROR(reader->ReadU32(&kind));
    BC_RETURN_IF_ERROR(reader->ReadI64(&column));
    if (kind > 2) return Status::InvalidModel("bad SPN node kind");
    n.kind = static_cast<NodeKind>(kind);
    n.column = static_cast<int>(column);
    std::vector<int64_t> children;
    BC_RETURN_IF_ERROR(reader->ReadI64Vec(&children));
    n.children.assign(children.begin(), children.end());
    BC_RETURN_IF_ERROR(reader->ReadDoubleVec(&n.weights));
    BC_RETURN_IF_ERROR(reader->ReadDoubleVec(&n.distribution));
  }
  return model;
}

}  // namespace bytecard::cardest
