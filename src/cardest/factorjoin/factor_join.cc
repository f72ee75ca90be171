#include "cardest/factorjoin/factor_join.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/logging.h"

namespace bytecard::cardest {

namespace {
constexpr uint32_t kFjFormatVersion = 2;
}  // namespace

// ---------------------------------------------------------------------------
// FactorJoinModel
// ---------------------------------------------------------------------------

Result<FactorJoinModel> FactorJoinModel::Train(
    const minihouse::Database& db,
    const std::vector<std::vector<JoinKeyRef>>& key_groups, int num_buckets) {
  FactorJoinModel model;
  for (const std::vector<JoinKeyRef>& members : key_groups) {
    if (members.empty()) continue;
    KeyGroup group;
    group.members = members;

    std::vector<const minihouse::Column*> columns;
    for (const JoinKeyRef& ref : members) {
      BC_ASSIGN_OR_RETURN(const minihouse::Table* table,
                          db.FindTable(ref.table));
      if (ref.column < 0 || ref.column >= table->num_columns()) {
        return Status::InvalidArgument("join key column out of range for '" +
                                       ref.table + "'");
      }
      columns.push_back(&table->column(ref.column));
    }
    group.buckets = JoinBucketizer::Build(columns, num_buckets);

    for (size_t i = 0; i < members.size(); ++i) {
      model.stats_[{members[i].table, members[i].column}] =
          BucketStats::Build(*columns[i], group.buckets);
    }
    model.groups_.push_back(std::move(group));
  }
  return model;
}

int FactorJoinModel::GroupOf(const std::string& table, int column) const {
  for (int g = 0; g < num_groups(); ++g) {
    for (const JoinKeyRef& ref : groups_[g].members) {
      if (ref.table == table && ref.column == column) return g;
    }
  }
  return -1;
}

Result<std::vector<int64_t>> FactorJoinModel::BoundariesFor(
    const std::string& table, int column) const {
  const int g = GroupOf(table, column);
  if (g < 0) {
    return Status::NotFound("no join key group for " + table + "." +
                            std::to_string(column));
  }
  return groups_[g].buckets.upper_bounds();
}

const BucketStats* FactorJoinModel::FindStats(const std::string& table,
                                              int column) const {
  auto it = stats_.find({table, column});
  return it == stats_.end() ? nullptr : &it->second;
}

BucketStats* FactorJoinModel::FindMutableStats(const std::string& table,
                                               int column) {
  auto it = stats_.find({table, column});
  return it == stats_.end() ? nullptr : &it->second;
}

void FactorJoinModel::Serialize(BufferWriter* writer) const {
  writer->WriteU32(kFjFormatVersion);
  writer->WriteU64(groups_.size());
  for (const KeyGroup& group : groups_) {
    writer->WriteU64(group.members.size());
    for (const JoinKeyRef& ref : group.members) {
      writer->WriteString(ref.table);
      writer->WriteI64(ref.column);
    }
    group.buckets.Serialize(writer);
  }
  writer->WriteU64(stats_.size());
  for (const auto& [key, stats] : stats_) {
    writer->WriteString(key.first);
    writer->WriteI64(key.second);
    stats.Serialize(writer);
  }
}

Result<FactorJoinModel> FactorJoinModel::Deserialize(BufferReader* reader) {
  uint32_t version = 0;
  BC_RETURN_IF_ERROR(reader->ReadU32(&version));
  if (version != kFjFormatVersion) {
    return Status::InvalidModel("unsupported FactorJoin artifact version");
  }
  FactorJoinModel model;
  uint64_t num_groups = 0;
  // A group: its member count and its bucketizer's bound count.
  BC_RETURN_IF_ERROR(reader->ReadCount(&num_groups, 2 * sizeof(uint64_t)));
  model.groups_.resize(num_groups);
  for (auto& group : model.groups_) {
    uint64_t num_members = 0;
    // A member: its table name's length and its column.
    BC_RETURN_IF_ERROR(reader->ReadCount(&num_members, 2 * sizeof(uint64_t)));
    group.members.resize(num_members);
    for (auto& ref : group.members) {
      BC_RETURN_IF_ERROR(reader->ReadString(&ref.table));
      int64_t column = 0;
      BC_RETURN_IF_ERROR(reader->ReadI64(&column));
      ref.column = static_cast<int>(column);
    }
    BC_ASSIGN_OR_RETURN(group.buckets, JoinBucketizer::Deserialize(reader));
  }
  uint64_t num_stats = 0;
  // A stats entry: table name length, column, then three vector counts.
  BC_RETURN_IF_ERROR(reader->ReadCount(&num_stats, 5 * sizeof(uint64_t)));
  for (uint64_t i = 0; i < num_stats; ++i) {
    std::string table;
    int64_t column = 0;
    BC_RETURN_IF_ERROR(reader->ReadString(&table));
    BC_RETURN_IF_ERROR(reader->ReadI64(&column));
    BC_ASSIGN_OR_RETURN(BucketStats stats, BucketStats::Deserialize(reader));
    model.stats_[{table, static_cast<int>(column)}] = std::move(stats);
  }
  return model;
}

// ---------------------------------------------------------------------------
// FactorJoinEstimator
// ---------------------------------------------------------------------------

std::vector<double> FactorJoinEstimator::FilteredBucketCounts(
    const minihouse::BoundQuery& query, int table_idx, int column, int group,
    double* count_out, InferenceSession* session) const {
  const minihouse::BoundTableRef& ref = query.tables[table_idx];

  // The join-order search asks for the same (table, filters, column)
  // marginal for every candidate subset; the per-query inference session
  // memoizes it so FactorJoin's planning overhead stays flat in the number
  // of subsets. The session is owned by the calling query thread, keeping
  // inference lock-free (paper §4.1).
  std::string key;
  if (session != nullptr) {
    key = "fjb:" + session->TableToken(query, table_idx) + ":" +
          std::to_string(column);
    double total = 0.0;
    if (const std::vector<double>* hit = session->LookupBuckets(key, &total)) {
      *count_out = total;
      return *hit;
    }
  }
  const int nb = model_->groups()[group].buckets.num_buckets();
  const BucketStats* stats = model_->FindStats(ref.table->name(), column);

  double selectivity = 1.0;
  auto bn_it = bn_contexts_->find(ref.table->name());
  const BnInferenceContext* bn =
      bn_it == bn_contexts_->end() ? nullptr : bn_it->second;

  if (bn != nullptr) {
    selectivity = bn->EstimateSelectivity(ref.filters);
    // Preferred path: the BN's joint marginal over the join column, whose
    // bins coincide with the join buckets by construction.
    Result<std::vector<double>> marginal =
        bn->MarginalWithEvidence(ref.filters, column);
    if (marginal.ok() &&
        static_cast<int>(marginal.value().size()) == nb) {
      std::vector<double> counts = std::move(marginal).value();
      const double rows = static_cast<double>(ref.table->num_rows());
      double total = 0.0;
      for (int b = 0; b < nb; ++b) {
        counts[b] *= rows;
        // Consistency clamp: CPD smoothing can leak phantom mass into
        // sparse buckets, but a filtered bucket can never hold more rows
        // than the bucket holds unfiltered.
        if (stats != nullptr &&
            static_cast<int>(stats->count.size()) == nb) {
          counts[b] = std::min(counts[b], stats->count[b]);
        }
        total += counts[b];
      }
      *count_out = total;
      if (session != nullptr) session->StoreBuckets(key, counts, total);
      return counts;
    }
  }

  // Fallback: scale unfiltered bucket counts by the overall selectivity
  // (independence between filter and join key).
  std::vector<double> counts(nb, 0.0);
  double total = 0.0;
  if (stats != nullptr &&
      static_cast<int>(stats->count.size()) == nb) {
    for (int b = 0; b < nb; ++b) {
      counts[b] = stats->count[b] * selectivity;
      total += counts[b];
    }
  } else {
    const double rows =
        static_cast<double>(ref.table->num_rows()) * selectivity;
    for (int b = 0; b < nb; ++b) counts[b] = rows / nb;
    total = rows;
  }
  *count_out = total;
  if (session != nullptr) session->StoreBuckets(key, counts, total);
  return counts;
}

double FactorJoinEstimator::EstimateJoinCount(
    const minihouse::BoundQuery& query, const std::vector<int>& subset,
    InferenceSession* session) const {
  if (subset.empty()) return 0.0;

  // Raw BN-filtered row count of one table. Memoized under "fjsel:" —
  // distinct from the snapshot's per-family selectivity entries: a row
  // count, not a fraction, and taken from the BN whatever its health.
  auto table_count = [&](int t) {
    const minihouse::BoundTableRef& ref = query.tables[t];
    std::string key;
    if (session != nullptr) {
      key = "fjsel:" + session->TableToken(query, t);
      double value = 0.0;
      if (session->LookupScalar(key, &value)) return value;
    }
    auto it = bn_contexts_->find(ref.table->name());
    const double sel = it == bn_contexts_->end()
                           ? 1.0
                           : it->second->EstimateSelectivity(ref.filters);
    const double count = sel * static_cast<double>(ref.table->num_rows());
    if (session != nullptr) session->StoreScalar(key, count);
    return count;
  };

  if (subset.size() == 1) return table_count(subset[0]);

  const std::vector<QueryKeyGroup> key_groups =
      BuildQueryKeyGroups(query, subset);
  const std::vector<int> order = JoinSpanningOrder(query, subset);

  // Per query-key-group state over the partial join V.
  struct GroupState {
    bool active = false;
    int model_group = -1;
    std::vector<double> cnt;  // filtered rows of V per bucket
    std::vector<double> mf;   // per-bucket max key frequency bound in V
    std::vector<double> d;    // per-bucket distinct-key estimate in V
  };
  std::vector<GroupState> state(key_groups.size());

  auto model_group_of = [&](const QueryKeyGroup& g) {
    for (const auto& [t, c] : g.members) {
      const int mg = model_->GroupOf(query.tables[t].table->name(), c);
      if (mg >= 0) return mg;
    }
    return -1;
  };

  // Per-bucket stats of table t's key `column`, with safe fallbacks when the
  // model lacks stats for this occurrence.
  auto bucket_stat = [&](const BucketStats* stats,
                         const std::vector<double>& cnt, int b,
                         auto member) {
    if (stats != nullptr &&
        static_cast<int>((stats->*member).size()) ==
            static_cast<int>(cnt.size())) {
      return std::max(1.0, (stats->*member)[b]);
    }
    return std::max(1.0, cnt[b]);
  };

  auto activate_for_table = [&](int t, double scale_to) {
    // Initializes every group with a member on t from t's own distribution,
    // scaled so totals match the current partial-join cardinality share.
    for (size_t gi = 0; gi < key_groups.size(); ++gi) {
      GroupState& gs = state[gi];
      if (gs.active) continue;
      const int column = key_groups[gi].ColumnOn(t);
      if (column < 0) continue;
      gs.model_group = model_group_of(key_groups[gi]);
      if (gs.model_group < 0) continue;  // untrained key: stays inactive
      double total = 0.0;
      gs.cnt = FilteredBucketCounts(query, t, column, gs.model_group, &total,
                                    session);
      const BucketStats* stats =
          model_->FindStats(query.tables[t].table->name(), column);
      const int nb = static_cast<int>(gs.cnt.size());
      gs.mf.assign(nb, 0.0);
      gs.d.assign(nb, 0.0);
      for (int b = 0; b < nb; ++b) {
        gs.mf[b] = bucket_stat(stats, gs.cnt, b, &BucketStats::max_freq);
        // Distinct keys surviving the filter cannot exceed the surviving
        // row count.
        gs.d[b] = std::min(bucket_stat(stats, gs.cnt, b,
                                       &BucketStats::distinct),
                           std::max(1.0, gs.cnt[b]));
      }
      if (total > 0.0 && scale_to > 0.0) {
        const double f = scale_to / total;
        // Amplification from joins already applied to V.
        if (std::abs(f - 1.0) > 1e-12) {
          for (double& c : gs.cnt) c *= f;
        }
      }
      gs.active = true;
    }
  };

  double card = table_count(order[0]);
  activate_for_table(order[0], card);

  for (size_t step = 1; step < order.size(); ++step) {
    const int t = order[step];
    const double t_count = std::max(table_count(t), 1e-9);

    // Shared groups: active groups with a member on t. Each yields an
    // estimate for this join step; take the tightest.
    double best_card = -1.0;
    int best_group = -1;
    std::vector<double> best_bucket_card;
    std::vector<double> best_bucket_d;

    for (size_t gi = 0; gi < key_groups.size(); ++gi) {
      GroupState& gs = state[gi];
      const int column = key_groups[gi].ColumnOn(t);
      if (!gs.active || column < 0) continue;
      double t_total = 0.0;
      const std::vector<double> cnt_t =
          FilteredBucketCounts(query, t, column, gs.model_group, &t_total,
                               session);
      const BucketStats* stats =
          model_->FindStats(query.tables[t].table->name(), column);
      const int nb = static_cast<int>(gs.cnt.size());
      if (static_cast<int>(cnt_t.size()) != nb) continue;

      std::vector<double> bucket_card(nb, 0.0);
      std::vector<double> bucket_d(nb, 1.0);
      double total = 0.0;
      for (int b = 0; b < nb; ++b) {
        const double mf_t =
            bucket_stat(stats, cnt_t, b, &BucketStats::max_freq);
        const double d_t = std::min(
            bucket_stat(stats, cnt_t, b, &BucketStats::distinct),
            std::max(1.0, cnt_t[b]));
        if (gs.cnt[b] <= 0.0 || cnt_t[b] <= 0.0) {
          bucket_card[b] = 0.0;
          bucket_d[b] = 1.0;
          continue;
        }
        if (mode_ == FactorJoinMode::kUpperBound) {
          // FactorJoin per-bucket probabilistic bound.
          bucket_card[b] = std::min(gs.cnt[b] * mf_t, cnt_t[b] * gs.mf[b]);
        } else {
          // Per-bucket join uniformity over the bucket's key domain.
          bucket_card[b] =
              gs.cnt[b] * cnt_t[b] / std::max(gs.d[b], d_t);
        }
        // Keys surviving the join exist on both sides.
        bucket_d[b] = std::max(1.0, std::min(gs.d[b], d_t));
        total += bucket_card[b];
      }
      if (best_card < 0.0 || total < best_card) {
        best_card = total;
        best_group = static_cast<int>(gi);
        best_bucket_card = std::move(bucket_card);
        best_bucket_d = std::move(bucket_d);
      }
    }

    double new_card;
    if (best_group < 0) {
      // No trained shared key (shouldn't happen on connected, trained
      // schemas): degrade to the Selinger-free product bound.
      new_card = card * t_count;
    } else {
      new_card = std::max(best_card, 0.0);
    }

    // Rescale all active group states to the new cardinality; install the
    // winning group's per-bucket distribution and fold t's statistics in.
    const double old_card = std::max(card, 1e-9);
    for (size_t gi = 0; gi < key_groups.size(); ++gi) {
      GroupState& gs = state[gi];
      if (!gs.active) continue;
      if (static_cast<int>(gi) == best_group) {
        const int column = key_groups[gi].ColumnOn(t);
        const BucketStats* stats =
            model_->FindStats(query.tables[t].table->name(), column);
        const int nb = static_cast<int>(gs.cnt.size());
        gs.cnt = best_bucket_card;
        gs.d = best_bucket_d;
        for (int b = 0; b < nb; ++b) {
          gs.mf[b] *= bucket_stat(stats, gs.cnt, b, &BucketStats::max_freq);
        }
      } else {
        const double f = new_card / old_card;
        for (double& c : gs.cnt) c *= f;
      }
    }
    card = new_card;
    // Groups first seen on t inherit t's distribution amplified to `card`.
    activate_for_table(t, card);
  }
  return std::max(card, 0.0);
}

}  // namespace bytecard::cardest
