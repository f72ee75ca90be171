#include "cardest/baselines/mscn.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/logging.h"

namespace bytecard::cardest {

namespace {
constexpr uint32_t kMscnFormatVersion = 1;

size_t StableHash(const std::string& s) {
  // FNV-1a, stable across runs (std::hash is not guaranteed stable).
  uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

int OpIndex(minihouse::CompareOp op) { return static_cast<int>(op); }

}  // namespace

int MscnModel::feature_dim() const {
  return static_cast<int>(table_names_.size()) + kJoinHashDim +
         kColumnHashDim + kOpDim + 1;  // +1 normalized operand value
}

std::vector<double> MscnModel::Featurize(
    const minihouse::BoundQuery& query) const {
  std::vector<double> features(feature_dim(), 0.0);
  const int num_tables = static_cast<int>(table_names_.size());

  // Table set: multi-hot.
  for (const minihouse::BoundTableRef& ref : query.tables) {
    for (int i = 0; i < num_tables; ++i) {
      if (table_names_[i] == ref.table->name()) features[i] = 1.0;
    }
  }

  // Join set: hashed one-hots, mean-pooled.
  if (!query.joins.empty()) {
    const double w = 1.0 / static_cast<double>(query.joins.size());
    for (const minihouse::JoinEdge& e : query.joins) {
      std::string a = query.tables[e.left_table].table->name() + "." +
                      std::to_string(e.left_column);
      std::string b = query.tables[e.right_table].table->name() + "." +
                      std::to_string(e.right_column);
      if (b < a) std::swap(a, b);
      const size_t h = StableHash(a + "=" + b) % kJoinHashDim;
      features[num_tables + static_cast<int>(h)] += w;
    }
  }

  // Predicate set: (hashed column, op one-hot, normalized value),
  // mean-pooled.
  int num_predicates = 0;
  for (const minihouse::BoundTableRef& ref : query.tables) {
    num_predicates += static_cast<int>(ref.filters.size());
  }
  if (num_predicates > 0) {
    const double w = 1.0 / static_cast<double>(num_predicates);
    const int col_base = num_tables + kJoinHashDim;
    const int op_base = col_base + kColumnHashDim;
    const int value_pos = op_base + kOpDim;
    for (const minihouse::BoundTableRef& ref : query.tables) {
      for (const minihouse::ColumnPredicate& pred : ref.filters) {
        const std::string key =
            ref.table->name() + "." + std::to_string(pred.column);
        const size_t h = StableHash(key) % kColumnHashDim;
        features[col_base + static_cast<int>(h)] += w;
        features[op_base + OpIndex(pred.op)] += w;

        double value = static_cast<double>(pred.operand);
        if (pred.op == minihouse::CompareOp::kIn && !pred.in_list.empty()) {
          value = static_cast<double>(pred.in_list[0]);
        }
        auto it = column_ranges_.find(key);
        double normalized = 0.5;
        if (it != column_ranges_.end() &&
            it->second.second > it->second.first) {
          normalized = (value - it->second.first) /
                       (it->second.second - it->second.first);
          normalized = std::clamp(normalized, 0.0, 1.0);
        }
        features[value_pos] += w * normalized;
      }
    }
  }
  return features;
}

Result<MscnModel> MscnModel::Train(
    const minihouse::Database& db,
    const std::vector<minihouse::BoundQuery>& queries,
    const std::vector<double>& true_counts, const TrainOptions& options) {
  if (queries.size() != true_counts.size() || queries.empty()) {
    return Status::InvalidArgument("MSCN training needs labelled queries");
  }
  MscnModel model;
  model.table_names_ = db.TableNames();
  for (const std::string& name : model.table_names_) {
    const minihouse::Table* table = db.FindTable(name).value();
    for (int c = 0; c < table->num_columns(); ++c) {
      if (table->schema().column(c).type == minihouse::DataType::kArray) {
        continue;
      }
      const minihouse::Column& col = table->column(c);
      double lo = 0.0;
      double hi = 0.0;
      if (col.num_rows() > 0) {
        lo = hi = static_cast<double>(col.NumericAt(0));
        for (int64_t i = 1; i < col.num_rows(); ++i) {
          const double v = static_cast<double>(col.NumericAt(i));
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
      }
      model.column_ranges_[name + "." + std::to_string(c)] = {lo, hi};
    }
  }

  model.network_ =
      Mlp::Create({model.feature_dim(), 128, 64, 1}, options.seed);

  std::vector<std::vector<double>> inputs;
  std::vector<double> targets;
  inputs.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    inputs.push_back(model.Featurize(queries[i]));
    targets.push_back(std::log1p(std::max(0.0, true_counts[i])));
  }

  Mlp::TrainConfig config;
  config.learning_rate = options.learning_rate;
  config.epochs = options.epochs;
  config.seed = options.seed;
  model.network_.Train(inputs, targets, config);
  BC_RETURN_IF_ERROR(model.network_.ValidateWeights());
  return model;
}

double MscnModel::EstimateCount(const minihouse::BoundQuery& query) const {
  const double log_count = network_.Predict(Featurize(query));
  return std::max(0.0, std::expm1(std::max(0.0, log_count)));
}

void MscnModel::Serialize(BufferWriter* writer) const {
  writer->WriteU32(kMscnFormatVersion);
  writer->WriteU64(table_names_.size());
  for (const std::string& name : table_names_) writer->WriteString(name);
  writer->WriteU64(column_ranges_.size());
  for (const auto& [key, range] : column_ranges_) {
    writer->WriteString(key);
    writer->WriteDouble(range.first);
    writer->WriteDouble(range.second);
  }
  network_.Serialize(writer);
}

Result<MscnModel> MscnModel::Deserialize(BufferReader* reader) {
  uint32_t version = 0;
  BC_RETURN_IF_ERROR(reader->ReadU32(&version));
  if (version != kMscnFormatVersion) {
    return Status::InvalidModel("unsupported MSCN artifact version");
  }
  MscnModel model;
  uint64_t num_tables = 0;
  BC_RETURN_IF_ERROR(reader->ReadCount(&num_tables, sizeof(uint64_t)));
  model.table_names_.resize(num_tables);
  for (auto& name : model.table_names_) {
    BC_RETURN_IF_ERROR(reader->ReadString(&name));
  }
  uint64_t num_ranges = 0;
  // A range: key length, then its two bounds.
  BC_RETURN_IF_ERROR(
      reader->ReadCount(&num_ranges, sizeof(uint64_t) + 2 * sizeof(double)));
  for (uint64_t i = 0; i < num_ranges; ++i) {
    std::string key;
    double lo = 0.0;
    double hi = 0.0;
    BC_RETURN_IF_ERROR(reader->ReadString(&key));
    BC_RETURN_IF_ERROR(reader->ReadDouble(&lo));
    BC_RETURN_IF_ERROR(reader->ReadDouble(&hi));
    model.column_ranges_[key] = {lo, hi};
  }
  BC_ASSIGN_OR_RETURN(model.network_, Mlp::Deserialize(reader));
  return model;
}

}  // namespace bytecard::cardest
