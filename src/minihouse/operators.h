#ifndef BYTECARD_MINIHOUSE_OPERATORS_H_
#define BYTECARD_MINIHOUSE_OPERATORS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bloom.h"
#include "common/status.h"
#include "minihouse/aggregate.h"
#include "minihouse/feedback.h"
#include "minihouse/io_stats.h"
#include "minihouse/join.h"
#include "minihouse/optimizer.h"
#include "minihouse/query.h"
#include "minihouse/query_context.h"
#include "minihouse/reader.h"
#include "minihouse/relation.h"

namespace bytecard::minihouse {

// What one operator observed while executing: its share of the query's
// counters, filled where it computes them, plus what feedback capture reads
// per node. The executor sums the tree's counters into the query's ExecStats
// after execution; operators never touch global state.
struct OperatorStats : OperatorCounters {
  int64_t rows_out = 0;  // rows this operator produced
  // Scans: a SIP Bloom filter pruned rows before materialization, so rows_out
  // undercounts the filter's true cardinality. Feedback capture must skip
  // such scans (join outputs stay exact — Bloom filters have no false
  // negatives, so every SIP-dropped row would have been dropped by the join).
  bool sip_filtered = false;
};

enum class OpKind { kScan, kHashJoin, kProject, kAggregate };

// A node of the physical operator DAG. Every node knows its children, the
// column identity set it produces, and its degree of parallelism; Execute
// runs the subtree rooted here (pull-based, one call per node per query) and
// records what happened into stats(). Nodes are single-use: compile a fresh
// tree per execution.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  virtual OpKind kind() const = 0;
  virtual const char* name() const = 0;
  virtual size_t num_children() const = 0;
  virtual const PhysicalOperator* child(size_t i) const = 0;
  virtual int dop() const { return 1; }
  // Identity ({table, column}) of every output slot, in slot order.
  virtual const std::vector<ColumnId>& output_columns() const = 0;

  virtual Result<Relation> Execute() = 0;

  const OperatorStats& stats() const { return stats_; }

  // Feedback capture: the observation this operator's output becomes, with
  // the estimation question it answers (kind, fingerprint, estimate, tables,
  // route class, replay) set at compile time; the executor fills in the
  // actual count after execution. Unset when feedback is off or the
  // operator answers no priced question.
  void SetFeedbackStamp(OperatorFeedback stamp) {
    feedback_ = std::move(stamp);
  }
  const std::optional<OperatorFeedback>& feedback_stamp() const {
    return feedback_;
  }

  // Marks this operator as the end of a join step — the join, or the
  // ProjectOp the compiler put above it — so its output counts as the
  // intermediate result the step ships downstream.
  void MarkJoinStepOutput() { join_step_output_ = true; }

 protected:
  // Records this operator's output (see MarkJoinStepOutput).
  void SetOutput(const Relation& out) {
    stats_.rows_out = out.num_rows();
    if (join_step_output_) {
      stats_.intermediate_values = out.num_values();
      stats_.peak_intermediate_values = out.num_values();
    }
  }

  OperatorStats stats_;
  std::optional<OperatorFeedback> feedback_;
  bool join_step_output_ = false;
};

// Leaf: scans one bound table, materializing exactly the columns some
// downstream operator consumes. A join above it may hand it a semi-join
// filter (SIP) immediately before execution.
class ScanOp : public PhysicalOperator {
 public:
  // `features` is the plan's (the scan honours its predicate-kernel and
  // block-pruning switches). `ctx` (non-null, not owned) supplies the owning
  // query's morsel policy; it must outlive Execute.
  ScanOp(const BoundQuery& query, int table_idx, TableScanPlan scan_plan,
         ExecFeatures features, const QueryContext* ctx);

  OpKind kind() const override { return OpKind::kScan; }
  const char* name() const override { return "Scan"; }
  size_t num_children() const override { return 0; }
  const PhysicalOperator* child(size_t) const override { return nullptr; }
  int dop() const override { return scan_plan_.dop; }
  const std::vector<ColumnId>& output_columns() const override {
    return output_ids_;
  }

  int table_index() const { return table_idx_; }

  // Marks the scan as the probe side of a join that may hand it a SIP filter
  // when the build side has run (HashJoinOp::EnableSip).
  void ExpectSemiJoinFilter() { sip_expected_ = true; }

  // Sideways information passing: `bloom` (not owned; must outlive Execute)
  // prunes rows of schema column `column` before materialization. Set by the
  // parent join after its build side resolves; cleared is the default.
  void SetSemiJoinFilter(const BloomFilter* bloom, int column) {
    sip_.bloom = bloom;
    sip_.column = column;
  }

  // Issues the scan's first reads before the tree wants its rows
  // (DESIGN.md §12): a serial scan opens its read-ahead pipeline, whose
  // first stages' latency then overlaps the operators that run before the
  // scan; Execute drains it. A scan that may receive a SIP filter opens only
  // with the single-stage reader, whose one stage already reads the SIP
  // column (the probe join key, an output column): in a multi-stage chain
  // SIP would become the first stage. A scan planned at dop > 1, or not
  // opened, opens when it executes. ExecuteQuery opens every scan.
  //
  // `planned` holds the scans opened while planning
  // (QueryContext::TakeOpenedScans). The scan takes over the pipeline opened
  // for its table ref, and the IoStats opening charged, instead of opening
  // its own, if its plan is still single-stage at dop 1 with the same
  // switches and the table still has the rows it had at opening (tables
  // only grow, so an ingest batch since then always moves the count).
  void Open(std::vector<OpenedScan>* planned = nullptr);

  Result<Relation> Execute() override;

 private:
  ScanOptions Options() const;

  const BoundTableRef& ref_;
  const QueryContext* ctx_;
  int table_idx_;
  TableScanPlan scan_plan_;
  ExecFeatures features_;
  bool sip_expected_ = false;
  SemiJoinFilter sip_;
  std::unique_ptr<ScanPipeline> opened_;
  std::vector<int> output_schema_columns_;  // schema indices, ascending
  std::vector<ColumnId> output_ids_;
  std::vector<std::string> output_names_;
};

// Late projection: keeps a subset of the child's slots (by moving the column
// vectors — no copy) and drops the rest. Inserted by the compiler wherever
// required-column analysis shows a slot's last consumer has run.
class ProjectOp : public PhysicalOperator {
 public:
  ProjectOp(std::unique_ptr<PhysicalOperator> child,
            std::vector<int> keep_slots);

  OpKind kind() const override { return OpKind::kProject; }
  const char* name() const override { return "Project"; }
  size_t num_children() const override { return 1; }
  const PhysicalOperator* child(size_t i) const override {
    return i == 0 ? child_.get() : nullptr;
  }
  const std::vector<ColumnId>& output_columns() const override {
    return output_ids_;
  }

  Result<Relation> Execute() override;

 private:
  std::unique_ptr<PhysicalOperator> child_;
  std::vector<int> keep_slots_;  // ascending slot indices into the child
  std::vector<ColumnId> output_ids_;
};

// Hash equi-join: left child is the accumulated build prefix, right child the
// probe-side scan. When SIP is enabled and the build output is much smaller
// than the probe table, the join publishes a Bloom filter of its first build
// key into the probe ScanOp before executing it (paper §3.1.2).
class HashJoinOp : public PhysicalOperator {
 public:
  // `ctx` (non-null, not owned) supplies the owning query's morsel policy.
  HashJoinOp(std::unique_ptr<PhysicalOperator> build,
             std::unique_ptr<PhysicalOperator> probe,
             std::vector<int> build_keys, std::vector<int> probe_keys,
             int dop, const QueryContext* ctx);

  OpKind kind() const override { return OpKind::kHashJoin; }
  const char* name() const override { return "HashJoin"; }
  size_t num_children() const override { return 2; }
  const PhysicalOperator* child(size_t i) const override {
    if (i == 0) return build_.get();
    if (i == 1) return probe_.get();
    return nullptr;
  }
  int dop() const override { return dop_; }
  const std::vector<ColumnId>& output_columns() const override {
    return output_ids_;
  }

  // Arms SIP: when the build output has fewer than half the probe table's
  // rows, Execute publishes build slot build_keys[0] as a Bloom filter into
  // `probe_scan` (which must be this node's probe child) on schema column
  // `probe_schema_column`.
  void EnableSip(ScanOp* probe_scan, int probe_schema_column,
                 int64_t probe_table_rows);

  // Arms the array-index join kernel (set by the compiler from the build/
  // probe columns' domain stats; Execute falls back to the hash table if the
  // build pass meets an out-of-domain key).
  void SetArrayJoinSpec(ArrayJoinSpec spec) { array_spec_ = spec; }

  Result<Relation> Execute() override;

 private:
  std::unique_ptr<PhysicalOperator> build_;
  std::unique_ptr<PhysicalOperator> probe_;
  std::vector<int> build_keys_;  // slots in the build child's output
  std::vector<int> probe_keys_;  // slots in the probe child's output
  int dop_;
  const QueryContext* ctx_;
  ScanOp* sip_scan_ = nullptr;  // non-owning alias of probe_ when armed
  int sip_probe_column_ = -1;
  int64_t sip_probe_table_rows_ = 0;
  ArrayJoinSpec array_spec_;
  std::vector<ColumnId> output_ids_;
};

// Root sink: hash-aggregates its child. Execute returns the group-key
// relation (the operator's relational output); the full AggregateResult —
// including double-typed aggregate values — is taken by the driver via
// TakeResult().
class AggregateOp : public PhysicalOperator {
 public:
  // `ctx` (non-null, not owned) supplies the owning query's morsel policy.
  AggregateOp(std::unique_ptr<PhysicalOperator> child,
              std::vector<int> key_slots, std::vector<AggRequest> aggs,
              int64_t ndv_hint, int dop, const QueryContext* ctx);

  OpKind kind() const override { return OpKind::kAggregate; }
  const char* name() const override { return "Aggregate"; }
  size_t num_children() const override { return 1; }
  const PhysicalOperator* child(size_t i) const override {
    return i == 0 ? child_.get() : nullptr;
  }
  int dop() const override { return dop_; }
  const std::vector<ColumnId>& output_columns() const override {
    return output_ids_;
  }

  Result<Relation> Execute() override;

  // Valid once Execute has succeeded.
  AggregateResult TakeResult() { return std::move(result_); }

  // Arms the dense-array aggregate kernel (set by the compiler from the
  // group-key column's domain stats; partitions that meet an out-of-domain
  // key degrade to the hash table individually).
  void SetDenseSpec(DenseAggSpec spec) { dense_spec_ = spec; }

 private:
  std::unique_ptr<PhysicalOperator> child_;
  std::vector<int> key_slots_;
  std::vector<AggRequest> aggs_;
  int64_t ndv_hint_;
  int dop_;
  const QueryContext* ctx_;
  DenseAggSpec dense_spec_;
  std::vector<ColumnId> output_ids_;
  AggregateResult result_;
};

// A compiled query: an AggregateOp owning the whole operator tree. Valid only
// while `query` (and its tables) outlive it; compile immediately before
// executing.
struct CompiledDag {
  std::unique_ptr<AggregateOp> root;
  // Every scan of the tree (owned by it), in the order the tree runs them.
  std::vector<ScanOp*> scans;
};

// Compiles a bound query + physical plan into an operator DAG:
//   1. resolves the plan's join-order *preference* into a connected execution
//      order (a table defers until it joins the prefix);
//   2. builds a ScanOp per table over exactly its required columns;
//   3. chains left-deep HashJoinOps, arming SIP per the plan;
//   4. runs required-column analysis and inserts ProjectOps after any join
//      step whose output carries dead columns (plan.features.prune_columns);
//   5. roots the tree with an AggregateOp resolving group keys and aggregate
//      inputs to slots via the column-identity map.
// All slot arithmetic happens here, at compile time — execution never looks
// up a column by name. `ctx` is the owning query's context (non-null, not
// owned): every operator in the tree schedules its fan-outs through the
// context's lane and morsel budget, and must not outlive it.
Result<CompiledDag> CompileOperatorDag(const BoundQuery& query,
                                       const PhysicalPlan& plan,
                                       const QueryContext* ctx);

}  // namespace bytecard::minihouse

#endif  // BYTECARD_MINIHOUSE_OPERATORS_H_
