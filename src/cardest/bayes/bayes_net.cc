#include "cardest/bayes/bayes_net.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "cardest/bayes/chow_liu.h"
#include "common/logging.h"

namespace bytecard::cardest {

namespace {
constexpr uint32_t kBnFormatVersion = 1;
}  // namespace

// ---------------------------------------------------------------------------
// Training
// ---------------------------------------------------------------------------

Result<BayesNetModel> BayesNetModel::Train(const minihouse::Table& table,
                                           const BnTrainOptions& options) {
  BayesNetModel model;
  model.table_name_ = table.name();
  model.row_count_ = table.num_rows();

  // Column selection: explicit list, or every model-supported column.
  std::vector<int> columns = options.columns;
  if (columns.empty()) {
    for (int c = 0; c < table.num_columns(); ++c) {
      if (table.schema().column(c).type != minihouse::DataType::kArray) {
        columns.push_back(c);
      }
    }
  }
  if (columns.empty()) {
    return Status::InvalidArgument("no trainable columns in table '" +
                                   table.name() + "'");
  }

  // Row sample for training (ModelForge trains on sampled data).
  const int64_t total_rows = table.num_rows();
  std::vector<int64_t> rows;
  if (options.max_train_rows > 0 && total_rows > options.max_train_rows) {
    Rng rng(options.seed);
    rows.resize(total_rows);
    std::iota(rows.begin(), rows.end(), 0);
    for (int64_t i = 0; i < options.max_train_rows; ++i) {
      const int64_t j = i + static_cast<int64_t>(rng.Uniform(total_rows - i));
      std::swap(rows[i], rows[j]);
    }
    rows.resize(options.max_train_rows);
  } else {
    rows.resize(total_rows);
    std::iota(rows.begin(), rows.end(), 0);
  }

  // Discretizers + binned data matrix.
  const int num_vars = static_cast<int>(columns.size());
  std::vector<std::vector<int>> data(num_vars);
  std::vector<int> bins(num_vars);
  model.nodes_.resize(num_vars);

  for (int v = 0; v < num_vars; ++v) {
    const int col_idx = columns[v];
    const minihouse::Column& col = table.column(col_idx);
    std::vector<int64_t> values;
    values.reserve(rows.size());
    for (int64_t r : rows) values.push_back(col.NumericAt(r));

    auto boundary_it = options.join_column_boundaries.find(col_idx);
    if (boundary_it != options.join_column_boundaries.end()) {
      model.nodes_[v].discretizer =
          Discretizer::BuildWithBoundaries(boundary_it->second, values);
    } else {
      model.nodes_[v].discretizer =
          Discretizer::Build(values, options.max_bins);
    }
    model.nodes_[v].column = col_idx;
    bins[v] = model.nodes_[v].num_bins();
    if (bins[v] == 0) {
      return Status::Internal("empty discretizer for column " +
                              std::to_string(col_idx));
    }
    data[v].reserve(values.size());
    for (int64_t value : values) {
      data[v].push_back(model.nodes_[v].discretizer.BinOf(value));
    }
  }

  // Structure learning (Chow-Liu) ...
  const ChowLiuTree tree = LearnChowLiuTree(data, bins);
  for (int v = 0; v < num_vars; ++v) {
    model.nodes_[v].parent = tree.parent[v];
  }

  // ... then parameter learning: smoothed maximum likelihood (EM degenerates
  // to this in one step when all variables are observed).
  const double alpha = kBnLaplaceAlpha;
  const int64_t n = static_cast<int64_t>(rows.size());
  for (int v = 0; v < num_vars; ++v) {
    BnNode& node = model.nodes_[v];
    const int nb = bins[v];
    if (node.parent < 0) {
      node.cpd.assign(nb, 0.0);
      for (int64_t i = 0; i < n; ++i) node.cpd[data[v][i]] += 1.0;
      const double denom = static_cast<double>(n) + alpha * nb;
      for (double& p : node.cpd) p = (p + alpha) / denom;
    } else {
      const int pb = bins[node.parent];
      node.cpd.assign(static_cast<size_t>(pb) * nb, 0.0);
      std::vector<double> parent_count(pb, 0.0);
      const std::vector<int>& pdata = data[node.parent];
      for (int64_t i = 0; i < n; ++i) {
        node.cpd[static_cast<size_t>(pdata[i]) * nb + data[v][i]] += 1.0;
        parent_count[pdata[i]] += 1.0;
      }
      for (int p = 0; p < pb; ++p) {
        const double denom = parent_count[p] + alpha * nb;
        for (int b = 0; b < nb; ++b) {
          double& cell = node.cpd[static_cast<size_t>(p) * nb + b];
          cell = (cell + alpha) / denom;
        }
      }
    }
  }
  return model;
}

BayesNetModel BayesNetModel::FromParts(std::string table_name,
                                       int64_t row_count,
                                       std::vector<BnNode> nodes) {
  BayesNetModel model;
  model.table_name_ = std::move(table_name);
  model.row_count_ = row_count;
  model.nodes_ = std::move(nodes);
  return model;
}

int BayesNetModel::NodeOfColumn(int column) const {
  for (int v = 0; v < num_nodes(); ++v) {
    if (nodes_[v].column == column) return v;
  }
  return -1;
}

Status BayesNetModel::ValidateStructure() const {
  const int n = num_nodes();
  if (n == 0) return Status::InvalidModel("BN has no nodes");
  int roots = 0;
  for (const BnNode& node : nodes_) {
    if (node.parent < 0) {
      ++roots;
    } else if (node.parent >= n) {
      return Status::InvalidModel("BN parent index out of range");
    }
    const size_t expected =
        node.parent < 0 ? static_cast<size_t>(node.num_bins())
                        : static_cast<size_t>(nodes_[node.parent].num_bins()) *
                              node.num_bins();
    if (node.cpd.size() != expected) {
      return Status::InvalidModel("BN CPD shape mismatch");
    }
    for (double p : node.cpd) {
      if (!std::isfinite(p) || p < 0.0) {
        return Status::InvalidModel("BN CPD has non-finite/negative entry");
      }
    }
  }
  if (roots != 1) return Status::InvalidModel("BN must have exactly one root");

  // Cycle detection (the paper's health-detector DAG check): walk up from
  // every node; a cycle shows as a path longer than n.
  for (int v = 0; v < n; ++v) {
    int cur = v;
    int steps = 0;
    while (cur >= 0) {
      cur = nodes_[cur].parent;
      if (++steps > n) return Status::InvalidModel("BN parent cycle");
    }
  }
  return Status::Ok();
}

void BayesNetModel::Serialize(BufferWriter* writer) const {
  writer->WriteU32(kBnFormatVersion);
  writer->WriteString(table_name_);
  writer->WriteI64(row_count_);
  writer->WriteU64(nodes_.size());
  for (const BnNode& node : nodes_) {
    writer->WriteI64(node.column);
    writer->WriteI64(node.parent);
    node.discretizer.Serialize(writer);
    writer->WriteDoubleVec(node.cpd);
  }
}

Result<BayesNetModel> BayesNetModel::Deserialize(BufferReader* reader) {
  uint32_t version = 0;
  BC_RETURN_IF_ERROR(reader->ReadU32(&version));
  if (version != kBnFormatVersion) {
    return Status::InvalidModel("unsupported BN artifact version");
  }
  BayesNetModel model;
  BC_RETURN_IF_ERROR(reader->ReadString(&model.table_name_));
  BC_RETURN_IF_ERROR(reader->ReadI64(&model.row_count_));
  uint64_t n = 0;
  BC_RETURN_IF_ERROR(reader->ReadU64(&n));
  model.nodes_.resize(n);
  for (auto& node : model.nodes_) {
    int64_t column = 0;
    int64_t parent = 0;
    BC_RETURN_IF_ERROR(reader->ReadI64(&column));
    BC_RETURN_IF_ERROR(reader->ReadI64(&parent));
    node.column = static_cast<int>(column);
    node.parent = static_cast<int>(parent);
    BC_ASSIGN_OR_RETURN(node.discretizer, Discretizer::Deserialize(reader));
    BC_RETURN_IF_ERROR(reader->ReadDoubleVec(&node.cpd));
  }
  return model;
}

// ---------------------------------------------------------------------------
// Inference context
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_next_context_id{1};
}  // namespace

BnInferenceContext::BnInferenceContext(const BayesNetModel* model)
    : model_(model),
      id_(g_next_context_id.fetch_add(1, std::memory_order_relaxed)) {
  const int n = model->num_nodes();
  children_.assign(n, {});
  for (int v = 0; v < n; ++v) {
    const int p = model->nodes()[v].parent;
    if (p < 0) {
      root_ = v;  // root identification (paper §4.1, item 1)
    } else {
      children_[p].push_back(v);
    }
    max_column_ = std::max(max_column_, model->nodes()[v].column);
  }
  col_to_node_.assign(max_column_ + 1, -1);
  for (int v = 0; v < n; ++v) {
    col_to_node_[model->nodes()[v].column] = v;
  }

  // Topological order (BFS from the root: parents before children).
  topo_.reserve(n);
  topo_.push_back(root_);
  for (size_t i = 0; i < topo_.size(); ++i) {
    for (int c : children_[topo_[i]]) topo_.push_back(c);
  }
  BC_CHECK(static_cast<int>(topo_.size()) == n);

  // CPD indexing (paper §4.1, item 2): flatten all CPDs into one array in
  // topological order for locality and direct offset access.
  cpd_offset_.assign(n, 0);
  int64_t offset = 0;
  for (int v : topo_) {
    cpd_offset_[v] = offset;
    offset += static_cast<int64_t>(model->nodes()[v].cpd.size());
  }
  flat_cpd_.resize(offset);
  for (int v : topo_) {
    const auto& cpd = model->nodes()[v].cpd;
    std::copy(cpd.begin(), cpd.end(), flat_cpd_.begin() + cpd_offset_[v]);
  }
}

std::vector<std::vector<double>> BnInferenceContext::BuildEvidence(
    const minihouse::Conjunction& filters) const {
  const int n = model_->num_nodes();
  std::vector<std::vector<double>> evidence(n);
  for (const minihouse::ColumnPredicate& pred : filters) {
    if (pred.column < 0 || pred.column > max_column_) continue;
    const int v = col_to_node_[pred.column];
    if (v < 0) continue;
    std::vector<double> w =
        model_->nodes()[v].discretizer.PredicateWeights(pred);
    if (evidence[v].empty()) {
      evidence[v] = std::move(w);
    } else {
      for (size_t b = 0; b < w.size(); ++b) evidence[v][b] *= w[b];
    }
  }
  return evidence;
}

void BnInferenceContext::UpwardPass(
    const std::vector<std::vector<double>>& evidence,
    std::vector<std::vector<double>>* up,
    std::vector<std::vector<double>>* child_sum) const {
  const int n = model_->num_nodes();
  up->assign(n, {});
  child_sum->assign(n, {});

  // Children before parents: iterate topo order in reverse.
  for (size_t i = topo_.size(); i-- > 0;) {
    const int v = topo_[i];
    const BnNode& node = model_->nodes()[v];
    const int nb = node.num_bins();
    std::vector<double>& up_v = (*up)[v];
    up_v.assign(nb, 1.0);
    if (!evidence[v].empty()) {
      for (int b = 0; b < nb; ++b) up_v[b] = evidence[v][b];
    }
    for (int c : children_[v]) {
      const BnNode& child = model_->nodes()[c];
      const int cb = child.num_bins();
      // S_c(x_v) = sum_{x_c} P(x_c | x_v) up_c(x_c), via the flat CPD array.
      const double* cpd = flat_cpd_.data() + cpd_offset_[c];
      std::vector<double>& sums = (*child_sum)[c];
      sums.assign(nb, 0.0);
      const std::vector<double>& up_c = (*up)[c];
      for (int p = 0; p < nb; ++p) {
        const double* row = cpd + static_cast<size_t>(p) * cb;
        double s = 0.0;
        for (int b = 0; b < cb; ++b) s += row[b] * up_c[b];
        sums[p] = s;
      }
      for (int b = 0; b < nb; ++b) up_v[b] *= sums[b];
    }
  }
}

namespace {

// Planner-call memo: one optimizer pass asks for the same (context, filters)
// selectivity dozens of times (column ordering probes, every join-order
// subset). thread_local keeps inference lock-free across query threads.
// Entries are keyed on the context's id, not its address: a context built
// where a destroyed one lived (one per call on the stack, or a reallocated
// engine context) must not inherit its answers.
struct SelectivityCacheEntry {
  uint64_t context = 0;  // no context has id 0
  uint64_t key = 0;
  double selectivity = 0.0;
};

uint64_t HashConjunction(const minihouse::Conjunction& filters) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h ^= (x ^ (x >> 27)) + (h << 6) + (h >> 2);
  };
  for (const minihouse::ColumnPredicate& pred : filters) {
    mix(static_cast<uint64_t>(pred.column));
    mix(static_cast<uint64_t>(pred.op));
    mix(static_cast<uint64_t>(pred.operand));
    mix(static_cast<uint64_t>(pred.operand2));
    for (int64_t v : pred.in_list) mix(static_cast<uint64_t>(v));
  }
  return h | 1ULL;
}

constexpr size_t kSelectivityCacheSlots = 256;

}  // namespace

double BnInferenceContext::EstimateSelectivity(
    const minihouse::Conjunction& filters) const {
  if (model_->num_nodes() == 0) return 1.0;

  thread_local std::vector<SelectivityCacheEntry> cache(
      kSelectivityCacheSlots);
  const uint64_t key = HashConjunction(filters);
  SelectivityCacheEntry& slot = cache[(key ^ id_) % kSelectivityCacheSlots];
  if (slot.context == id_ && slot.key == key) return slot.selectivity;

  const std::vector<std::vector<double>> evidence = BuildEvidence(filters);
  std::vector<std::vector<double>> up;
  std::vector<std::vector<double>> child_sum;
  UpwardPass(evidence, &up, &child_sum);

  const BnNode& root = model_->nodes()[root_];
  const double* prior = flat_cpd_.data() + cpd_offset_[root_];
  double z = 0.0;
  for (int b = 0; b < root.num_bins(); ++b) z += prior[b] * up[root_][b];
  z = std::clamp(z, 0.0, 1.0);
  slot = {id_, key, z};
  return z;
}

double BnInferenceContext::EstimateCount(
    const minihouse::Conjunction& filters) const {
  return EstimateSelectivity(filters) *
         static_cast<double>(model_->row_count());
}

Result<std::vector<double>> BnInferenceContext::MarginalWithEvidence(
    const minihouse::Conjunction& filters, int column) const {
  const int target = column <= max_column_ && column >= 0
                         ? col_to_node_[column]
                         : -1;
  if (target < 0) {
    return Status::NotFound("column " + std::to_string(column) +
                            " not modelled by BN for table '" +
                            model_->table_name() + "'");
  }
  const std::vector<std::vector<double>> evidence = BuildEvidence(filters);
  std::vector<std::vector<double>> up;
  std::vector<std::vector<double>> child_sum;
  UpwardPass(evidence, &up, &child_sum);

  // Downward pass along the root -> target path only (marginals elsewhere
  // are not needed).
  const int n = model_->num_nodes();
  std::vector<std::vector<double>> down(n);
  const BnNode& root = model_->nodes()[root_];
  down[root_].assign(flat_cpd_.data() + cpd_offset_[root_],
                     flat_cpd_.data() + cpd_offset_[root_] +
                         root.num_bins());

  // Path root..target.
  std::vector<int> path;
  for (int v = target; v != -1; v = model_->nodes()[v].parent) {
    path.push_back(v);
  }
  std::reverse(path.begin(), path.end());
  BC_CHECK(path.front() == root_);

  for (size_t i = 1; i < path.size(); ++i) {
    const int v = path[i - 1];
    const int c = path[i];
    const BnNode& parent = model_->nodes()[v];
    const BnNode& child = model_->nodes()[c];
    const int vb = parent.num_bins();
    const int cb = child.num_bins();

    // factor_v(x_v) = down_v(x_v) * w_v(x_v) * prod_{s in ch(v), s != c} S_s.
    std::vector<double> factor(vb, 0.0);
    for (int b = 0; b < vb; ++b) {
      double f = down[v][b];
      if (!evidence[v].empty()) f *= evidence[v][b];
      for (int s : children_[v]) {
        if (s == c) continue;
        f *= child_sum[s][b];
      }
      factor[b] = f;
    }
    const double* cpd = flat_cpd_.data() + cpd_offset_[c];
    down[c].assign(cb, 0.0);
    for (int p = 0; p < vb; ++p) {
      if (factor[p] == 0.0) continue;
      const double* row = cpd + static_cast<size_t>(p) * cb;
      for (int b = 0; b < cb; ++b) down[c][b] += factor[p] * row[b];
    }
  }

  std::vector<double> marginal(model_->nodes()[target].num_bins(), 0.0);
  for (size_t b = 0; b < marginal.size(); ++b) {
    marginal[b] = down[target][b] * up[target][b];
  }
  return marginal;
}

double BnInferenceContext::EstimateSelectivityTreeWalk(
    const minihouse::Conjunction& filters) const {
  // Reference implementation that re-derives structure on the fly and walks
  // node structs recursively (pointer-chasing through per-node vectors),
  // i.e. exactly what InitContext's frozen index avoids.
  const std::vector<std::vector<double>> evidence = BuildEvidence(filters);
  const auto& nodes = model_->nodes();

  struct Walker {
    const std::vector<BnNode>& nodes;
    const std::vector<std::vector<double>>& evidence;

    std::vector<int> ChildrenOf(int v) const {
      std::vector<int> out;
      for (int c = 0; c < static_cast<int>(nodes.size()); ++c) {
        if (nodes[c].parent == v) out.push_back(c);
      }
      return out;
    }

    std::vector<double> Up(int v) const {
      const int nb = nodes[v].num_bins();
      std::vector<double> up(nb, 1.0);
      if (!evidence[v].empty()) up = evidence[v];
      for (int c : ChildrenOf(v)) {
        const std::vector<double> up_c = Up(c);
        const int cb = nodes[c].num_bins();
        for (int b = 0; b < nb; ++b) {
          double s = 0.0;
          for (int x = 0; x < cb; ++x) {
            s += nodes[c].cpd[static_cast<size_t>(b) * cb + x] * up_c[x];
          }
          up[b] *= s;
        }
      }
      return up;
    }
  };

  Walker walker{nodes, evidence};
  int root = 0;
  for (int v = 0; v < static_cast<int>(nodes.size()); ++v) {
    if (nodes[v].parent < 0) root = v;
  }
  const std::vector<double> up = walker.Up(root);
  double z = 0.0;
  for (int b = 0; b < nodes[root].num_bins(); ++b) {
    z += nodes[root].cpd[b] * up[b];
  }
  return std::clamp(z, 0.0, 1.0);
}

}  // namespace bytecard::cardest
