#include "minihouse/operators.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>

#include "cardest/request.h"
#include "common/logging.h"

namespace bytecard::minihouse {

namespace {

std::string QualifiedName(const BoundQuery& query, int table, int column) {
  const BoundTableRef& ref = query.tables[table];
  const std::string& alias =
      ref.alias.empty() ? ref.table->name() : ref.alias;
  return alias + "." + ref.table->schema().column(column).name;
}

int FindSlot(const std::vector<ColumnId>& ids, const ColumnId& id) {
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == id) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

// --- ScanOp ------------------------------------------------------------------

ScanOp::ScanOp(const BoundQuery& query, int table_idx, TableScanPlan scan_plan,
               ExecFeatures features, const QueryContext* ctx)
    : ref_(query.tables[table_idx]),
      ctx_(ctx),
      table_idx_(table_idx),
      scan_plan_(std::move(scan_plan)),
      features_(features),
      output_schema_columns_(RequiredScanColumns(query, table_idx)) {
  output_ids_.reserve(output_schema_columns_.size());
  output_names_.reserve(output_schema_columns_.size());
  for (int c : output_schema_columns_) {
    output_ids_.push_back(ColumnId{table_idx, c});
    output_names_.push_back(QualifiedName(query, table_idx, c));
  }
}

ScanOptions ScanOp::Options() const {
  ScanOptions options;
  options.reader = scan_plan_.reader;
  options.filter_order = scan_plan_.filter_order;
  options.sip = sip_;
  options.dop = scan_plan_.dop;
  options.morsel_policy = ctx_->morsel_policy();
  options.features = features_;
  return options;
}

void ScanOp::Open(std::vector<OpenedScan>* planned) {
  BC_DCHECK(!opened_);
  if (planned != nullptr) {
    auto scan = std::find_if(
        planned->begin(), planned->end(),
        [this](const OpenedScan& s) { return s.ref == &ref_; });
    if (scan != planned->end() && scan->pipeline != nullptr &&
        scan_plan_.reader == ReaderKind::kSingleStage &&
        scan_plan_.dop == 1 && scan->features == features_ &&
        scan->table_rows == ref_.table->num_rows()) {
      stats_.io += scan->io;
      opened_ = std::move(scan->pipeline);
      return;
    }
  }
  if (scan_plan_.dop > 1 ||
      (sip_expected_ && scan_plan_.reader != ReaderKind::kSingleStage)) {
    return;
  }
  opened_ = std::make_unique<ScanPipeline>(
      *ref_.table, ref_.filters, output_schema_columns_, Options(), 0,
      ref_.table->num_blocks(), &stats_.io);
}

Result<Relation> ScanOp::Execute() {
  ScanResult scanned;
  if (opened_) {
    opened_->ArmSip(sip_);
    scanned = opened_->Drain(&stats_.io);
    opened_.reset();
  } else {
    scanned = ScanTable(*ref_.table, ref_.filters, output_schema_columns_,
                        Options(), &stats_.io);
  }
  stats_.threads_used = scanned.dop_used;
  stats_.parallel_tasks = scanned.parallel_tasks;
  stats_.sip_filtered = sip_.bloom != nullptr;

  Relation rel;
  rel.column_names = output_names_;
  rel.column_ids = output_ids_;
  rel.columns = std::move(scanned.materialized);
  // Authoritative count: a scan projecting zero payload columns (COUNT(*)
  // with no joins or keys on this table) still reports its cardinality.
  rel.rows = scanned.rows_matched();
  SetOutput(rel);
  return rel;
}

// --- ProjectOp ---------------------------------------------------------------

ProjectOp::ProjectOp(std::unique_ptr<PhysicalOperator> child,
                     std::vector<int> keep_slots)
    : child_(std::move(child)), keep_slots_(std::move(keep_slots)) {
  const std::vector<ColumnId>& in = child_->output_columns();
  output_ids_.reserve(keep_slots_.size());
  for (int s : keep_slots_) {
    BC_CHECK(s >= 0 && s < static_cast<int>(in.size()));
    output_ids_.push_back(in[s]);
  }
}

Result<Relation> ProjectOp::Execute() {
  BC_ASSIGN_OR_RETURN(Relation in, child_->Execute());
  Relation out;
  out.rows = in.num_rows();  // survives even if every column is dropped
  out.column_names.reserve(keep_slots_.size());
  out.column_ids.reserve(keep_slots_.size());
  out.columns.reserve(keep_slots_.size());
  for (int s : keep_slots_) {
    out.column_names.push_back(std::move(in.column_names[s]));
    out.column_ids.push_back(in.column_ids[s]);
    out.columns.push_back(std::move(in.columns[s]));
  }
  stats_.columns_pruned =
      static_cast<int64_t>(in.columns.size() - keep_slots_.size());
  SetOutput(out);
  return out;
}

// --- HashJoinOp --------------------------------------------------------------

HashJoinOp::HashJoinOp(std::unique_ptr<PhysicalOperator> build,
                       std::unique_ptr<PhysicalOperator> probe,
                       std::vector<int> build_keys, std::vector<int> probe_keys,
                       int dop, const QueryContext* ctx)
    : build_(std::move(build)),
      probe_(std::move(probe)),
      build_keys_(std::move(build_keys)),
      probe_keys_(std::move(probe_keys)),
      dop_(dop),
      ctx_(ctx) {
  output_ids_ = build_->output_columns();
  const std::vector<ColumnId>& right = probe_->output_columns();
  output_ids_.insert(output_ids_.end(), right.begin(), right.end());
}

void HashJoinOp::EnableSip(ScanOp* probe_scan, int probe_schema_column,
                           int64_t probe_table_rows) {
  BC_CHECK(probe_scan == probe_.get());
  probe_scan->ExpectSemiJoinFilter();
  sip_scan_ = probe_scan;
  sip_probe_column_ = probe_schema_column;
  sip_probe_table_rows_ = probe_table_rows;
}

Result<Relation> HashJoinOp::Execute() {
  BC_ASSIGN_OR_RETURN(Relation build, build_->Execute());

  // Sideways information passing: publish the build keys as a Bloom filter
  // into the probe scan when the build output is much smaller than the probe
  // table (paper §3.1.2). Decided here, at runtime, from actual sizes.
  std::unique_ptr<BloomFilter> sip_bloom;
  if (sip_scan_ != nullptr &&
      build.num_rows() * 2 < sip_probe_table_rows_) {
    const std::vector<int64_t>& keys = build.columns[build_keys_[0]];
    sip_bloom = std::make_unique<BloomFilter>(build.num_rows());
    for (int64_t r = 0; r < build.num_rows(); ++r) {
      sip_bloom->Add(keys[r]);
    }
    sip_scan_->SetSemiJoinFilter(sip_bloom.get(), sip_probe_column_);
  }

  BC_ASSIGN_OR_RETURN(Relation probe, probe_->Execute());
  stats_.probe_rows_materialized = probe.num_rows();

  JoinRunInfo info;
  BC_ASSIGN_OR_RETURN(Relation out,
                      HashJoin(build, probe, build_keys_, probe_keys_, dop_,
                               &info, ctx_->morsel_policy(), array_spec_));
  stats_.threads_used = info.dop_used;
  stats_.parallel_tasks = info.parallel_tasks;
  // "Specialized" means the compiler's pick was attempted — a despecialized
  // build (out-of-domain key met while building the array index) still
  // counts as an attempt, and additionally as one degraded morsel.
  stats_.array_join_ops = info.specialized || info.despecialized ? 1 : 0;
  stats_.specialized_ops = stats_.array_join_ops;
  stats_.despecialized_morsels = info.despecialized ? 1 : 0;
  stats_.intermediate_rows = out.num_rows();
  SetOutput(out);
  return out;
}

// --- AggregateOp -------------------------------------------------------------

AggregateOp::AggregateOp(std::unique_ptr<PhysicalOperator> child,
                         std::vector<int> key_slots,
                         std::vector<AggRequest> aggs, int64_t ndv_hint,
                         int dop, const QueryContext* ctx)
    : child_(std::move(child)),
      key_slots_(std::move(key_slots)),
      aggs_(std::move(aggs)),
      ndv_hint_(ndv_hint),
      dop_(dop),
      ctx_(ctx) {
  const std::vector<ColumnId>& in = child_->output_columns();
  output_ids_.reserve(key_slots_.size());
  for (int s : key_slots_) {
    BC_CHECK(s >= 0 && s < static_cast<int>(in.size()));
    output_ids_.push_back(in[s]);
  }
}

Result<Relation> AggregateOp::Execute() {
  BC_ASSIGN_OR_RETURN(Relation in, child_->Execute());
  result_ = HashAggregate(in, key_slots_, aggs_, ndv_hint_, dop_,
                          ctx_->morsel_policy(), dense_spec_);
  stats_.threads_used = result_.dop_used;
  stats_.parallel_tasks = result_.parallel_tasks;
  stats_.agg_resize_count = result_.resize_count;
  stats_.dense_agg_ops = result_.specialized ? 1 : 0;
  stats_.specialized_ops = stats_.dense_agg_ops;
  stats_.despecialized_morsels = result_.despecialized_morsels;

  Relation groups;
  groups.column_ids = output_ids_;
  groups.column_names.reserve(key_slots_.size());
  for (int s : key_slots_) {
    groups.column_names.push_back(in.column_names[s]);
  }
  groups.columns = result_.group_keys;
  groups.rows = result_.num_groups;
  SetOutput(groups);
  return groups;
}

// --- Compilation -------------------------------------------------------------

Result<CompiledDag> CompileOperatorDag(const BoundQuery& query,
                                       const PhysicalPlan& plan,
                                       const QueryContext* ctx) {
  BC_CHECK(ctx != nullptr);
  if (query.tables.empty()) {
    return Status::InvalidArgument("query has no tables");
  }
  if (plan.scans.size() != query.tables.size()) {
    return Status::InvalidArgument("plan/table count mismatch");
  }

  // Resolve the plan's join-order preference into a connected execution
  // order: a table defers until it joins the placed prefix, so a default
  // index order on e.g. a star schema never degenerates to a cross product.
  std::vector<int> preference = plan.join_order;
  if (preference.empty()) {
    preference.resize(query.tables.size());
    for (size_t i = 0; i < preference.size(); ++i) {
      preference[i] = static_cast<int>(i);
    }
  }
  std::vector<int> order;
  order.reserve(preference.size());
  {
    std::vector<bool> placed(query.tables.size(), false);
    auto connects = [&](int t) {
      if (order.empty()) return true;
      for (const JoinEdge& e : query.joins) {
        if ((e.left_table == t && placed[e.right_table]) ||
            (e.right_table == t && placed[e.left_table])) {
          return true;
        }
      }
      return false;
    };
    while (order.size() < preference.size()) {
      bool advanced = false;
      for (int t : preference) {
        if (placed[t] || !connects(t)) continue;
        order.push_back(t);
        placed[t] = true;
        advanced = true;
        break;
      }
      if (!advanced) {
        return Status::InvalidArgument(
            "disconnected join graph (cross products unsupported)");
      }
    }
  }

  // Column lifetimes for late projection (empty = keep everything).
  std::vector<std::vector<ColumnId>> keep_after;
  if (plan.features.prune_columns) {
    keep_after = RequiredColumnsAfterJoin(query, order);
  }

  // Runtime-feedback stamping: attach to each operator the estimation
  // question its output cardinality answers, as the observation it becomes.
  // Filterless scans carry no question (the optimizer never priced them),
  // and join steps are looked up by subset key so the connectivity fixup
  // above cannot misattribute an estimate to the wrong prefix.
  const bool capture = plan.feedback != nullptr;
  auto make_stamp = [&](FeedbackKind kind,
                        const cardest::CardEstRequest& request,
                        std::string fingerprint, double estimated,
                        const std::vector<int>& subset) {
    OperatorFeedback stamp;
    stamp.kind = kind;
    stamp.fingerprint = std::move(fingerprint);
    stamp.estimated = estimated;
    stamp.tables.reserve(subset.size());
    for (int t : subset) stamp.tables.push_back(query.tables[t].table->name());
    stamp.route_class = request.RouteClass();
    stamp.replay = MakeReplaySpec(query, subset, kind);
    return stamp;
  };
  auto make_scan = [&](int t) {
    return std::make_unique<ScanOp>(query, t, plan.scans[t], plan.features,
                                    ctx);
  };
  // A specialization is vetoed when a prior run of the same subplan
  // mis-specialized (its runtime guard fired). Without feedback there is
  // nothing recording guard firings, so nothing is ever vetoed.
  auto vetoed = [&](const std::string& fingerprint) {
    return capture && plan.feedback->SpecializationVetoed(fingerprint);
  };
  auto stamp_scan = [&](ScanOp* scan_op, int t) {
    if (!capture) return;
    const BoundTableRef& ref = query.tables[t];
    if (ref.filters.empty()) return;
    const auto request =
        cardest::CardEstRequest::Selectivity(*ref.table, ref.filters);
    scan_op->SetFeedbackStamp(make_stamp(
        FeedbackKind::kScan, request, request.Fingerprint(),
        plan.scans[t].estimated_selectivity *
            static_cast<double>(ref.table->num_rows()),
        {t}));
  };

  std::vector<ScanOp*> scans;
  auto first_scan = make_scan(order[0]);
  stamp_scan(first_scan.get(), order[0]);
  scans.push_back(first_scan.get());
  std::unique_ptr<PhysicalOperator> op = std::move(first_scan);
  std::set<int> joined = {order[0]};

  for (size_t step = 1; step < order.size(); ++step) {
    const int t = order[step];
    auto scan = make_scan(t);
    ScanOp* scan_raw = scan.get();
    stamp_scan(scan_raw, t);
    scans.push_back(scan_raw);

    // Resolve every edge connecting t to the prefix into slot pairs, in
    // query.joins order (the first is also the SIP edge, matching the
    // pre-DAG executor exactly).
    std::vector<int> build_keys;
    std::vector<int> probe_keys;
    int sip_probe_schema_col = -1;
    // Base columns behind the first (and for single-edge joins, only) key
    // pair: their domain stats bound every value either join input can hold,
    // which is what the array-index kernel specializes on.
    int first_prefix_table = -1;
    int first_prefix_col = -1;
    for (const JoinEdge& e : query.joins) {
      int this_col = -1;
      int other_table = -1;
      int other_col = -1;
      if (e.left_table == t && joined.count(e.right_table)) {
        this_col = e.left_column;
        other_table = e.right_table;
        other_col = e.right_column;
      } else if (e.right_table == t && joined.count(e.left_table)) {
        this_col = e.right_column;
        other_table = e.left_table;
        other_col = e.left_column;
      } else {
        continue;
      }
      const int bk =
          FindSlot(op->output_columns(), ColumnId{other_table, other_col});
      const int pk = FindSlot(scan->output_columns(), ColumnId{t, this_col});
      if (bk < 0 || pk < 0) {
        return Status::Internal("join key column missing from relation");
      }
      if (build_keys.empty()) {
        sip_probe_schema_col = this_col;
        first_prefix_table = other_table;
        first_prefix_col = other_col;
      }
      build_keys.push_back(bk);
      probe_keys.push_back(pk);
    }
    if (build_keys.empty()) {
      return Status::InvalidArgument(
          "disconnected join graph (cross products unsupported)");
    }

    const int join_dop =
        t < static_cast<int>(plan.join_dop.size()) ? plan.join_dop[t] : 1;
    const size_t num_key_pairs = build_keys.size();
    auto join = std::make_unique<HashJoinOp>(
        std::move(op), std::move(scan), std::move(build_keys),
        std::move(probe_keys), join_dop, ctx);
    if (plan.features.sip) {
      join->EnableSip(scan_raw, sip_probe_schema_col,
                      query.tables[t].table->num_rows());
    }
    if (capture) {
      std::vector<int> subset(order.begin(),
                              order.begin() + static_cast<long>(step) + 1);
      // The canonical fingerprint is both the join_estimates key (the
      // optimizer memoed under it) and the stamp the executor reports under.
      const auto request = cardest::CardEstRequest::JoinCount(query, subset);
      std::string fingerprint = request.Fingerprint();
      auto est = plan.join_estimates.find(fingerprint);
      // Unpriced prefixes (join ordering off, fallback orders) carry no
      // estimate and produce no observation.
      if (est != plan.join_estimates.end()) {
        join->SetFeedbackStamp(make_stamp(FeedbackKind::kJoin, request,
                                          std::move(fingerprint), est->second,
                                          subset));
      }
    }
    // Array-index join eligibility: single key pair, and at least one input
    // whose base key column has domain stats (join values are drawn from the
    // base column, so its bounds hold for any filtered/joined subset). The
    // budget and the build-side choice resolve inside HashJoin at runtime.
    if (plan.features.specialize_ops && num_key_pairs == 1) {
      std::vector<int> subset(order.begin(),
                              order.begin() + static_cast<long>(step) + 1);
      if (!vetoed(cardest::SubplanKey(query, subset))) {
        const ColumnDomain& left_dom =
            query.tables[first_prefix_table].table->domain(first_prefix_col);
        const ColumnDomain& right_dom =
            query.tables[t].table->domain(sip_probe_schema_col);
        ArrayJoinSpec spec;
        if (left_dom.valid && left_dom.Width() > 0) {
          spec.left_min = left_dom.min;
          spec.left_max = left_dom.max;
          spec.enabled = true;
        }
        if (right_dom.valid && right_dom.Width() > 0) {
          spec.right_min = right_dom.min;
          spec.right_max = right_dom.max;
          spec.enabled = true;
        }
        if (spec.enabled) join->SetArrayJoinSpec(spec);
      }
    }
    op = std::move(join);
    joined.insert(t);

    // Late projection: drop every slot whose last consumer has now run.
    if (step - 1 < keep_after.size()) {
      const std::vector<ColumnId>& needed = keep_after[step - 1];
      const std::vector<ColumnId>& out = op->output_columns();
      std::vector<int> keep_slots;
      keep_slots.reserve(needed.size());
      for (size_t i = 0; i < out.size(); ++i) {
        if (FindSlot(needed, out[i]) >= 0) {
          keep_slots.push_back(static_cast<int>(i));
        }
      }
      if (keep_slots.size() < out.size()) {
        op = std::make_unique<ProjectOp>(std::move(op), std::move(keep_slots));
      }
    }
    // The step ships the join's output, or the projection of it.
    op->MarkJoinStepOutput();
  }

  // Root aggregation: group keys and aggregate inputs resolved against the
  // final layout.
  std::vector<int> key_slots;
  for (const GroupKeyRef& g : query.group_by) {
    const int s = FindSlot(op->output_columns(), ColumnId{g.table, g.column});
    if (s < 0) return Status::Internal("group key missing from relation");
    key_slots.push_back(s);
  }
  std::vector<AggRequest> agg_requests;
  for (const AggSpecRef& a : query.aggs) {
    AggRequest req;
    req.func = a.func;
    if (a.column >= 0) {
      req.input_column =
          FindSlot(op->output_columns(), ColumnId{a.table, a.column});
      if (req.input_column < 0) {
        return Status::Internal("aggregate input missing from relation");
      }
    }
    agg_requests.push_back(req);
  }
  if (agg_requests.empty()) {
    agg_requests.push_back(AggRequest{AggFunc::kCountStar, -1});
  }

  const size_t num_group_keys = key_slots.size();
  CompiledDag dag;
  dag.scans = std::move(scans);
  dag.root = std::make_unique<AggregateOp>(
      std::move(op), std::move(key_slots), std::move(agg_requests),
      plan.group_ndv_hint, plan.agg_dop, ctx);
  // Dense-array aggregate eligibility: one group key whose base column has
  // domain stats, width within budget, and — when the optimizer priced the
  // group NDV — a domain not wildly sparser than the estimated group count
  // (a huge nearly-empty array wastes more than hashing costs).
  if (plan.features.specialize_ops && num_group_keys == 1) {
    const GroupKeyRef& g = query.group_by[0];
    const ColumnDomain& dom = query.tables[g.table].table->domain(g.column);
    const int64_t width = dom.Width();
    const int64_t hint = plan.group_ndv_hint;
    const bool sparse = hint > 0 && width > 1024 && width > 32 * hint;
    if (dom.valid && width > 0 && width <= kDenseAggBudget && !sparse &&
        !vetoed(cardest::GroupNdvKey(query))) {
      DenseAggSpec spec;
      spec.enabled = true;
      spec.domain_min = dom.min;
      spec.domain_max = dom.max;
      dag.root->SetDenseSpec(spec);
    }
  }
  // Group-NDV observation: only when the optimizer actually priced the NDV
  // question (hint > 0 means EstimateGroupNdv ran and sized the hash table).
  if (capture && !query.group_by.empty() && plan.group_ndv_hint > 0) {
    const auto request = cardest::CardEstRequest::GroupNdv(query);
    std::vector<int> all_tables(query.tables.size());
    std::iota(all_tables.begin(), all_tables.end(), 0);
    dag.root->SetFeedbackStamp(make_stamp(
        FeedbackKind::kGroupNdv, request, request.Fingerprint(),
        static_cast<double>(plan.group_ndv_hint), all_tables));
  }
  return dag;
}

}  // namespace bytecard::minihouse
