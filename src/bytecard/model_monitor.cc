#include "bytecard/model_monitor.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "minihouse/feedback.h"
#include "minihouse/predicate.h"

namespace bytecard {

namespace {

// Every probe conjunction has 1..kMaxProbePredicates predicates, and each
// evaluation replays the same probe sequence from kProbeSeed.
constexpr int kMaxProbePredicates = 3;
constexpr uint64_t kProbeSeed = 99;

}  // namespace

minihouse::Conjunction ModelMonitor::GenerateProbe(
    const minihouse::Table& table, Rng* rng) const {
  minihouse::Conjunction conjuncts;
  if (table.num_rows() == 0) return conjuncts;

  // Candidate columns: anything the models can see.
  std::vector<int> candidates;
  for (int c = 0; c < table.num_columns(); ++c) {
    if (table.schema().column(c).type != minihouse::DataType::kArray) {
      candidates.push_back(c);
    }
  }
  if (candidates.empty()) return conjuncts;

  const int want = 1 + static_cast<int>(rng->Uniform(
                           std::min<size_t>(kMaxProbePredicates,
                                            candidates.size())));
  rng->Shuffle(&candidates);

  for (int i = 0; i < want; ++i) {
    const int c = candidates[i];
    const minihouse::Column& col = table.column(c);
    // Anchor the predicate at a random existing row's value so probes have
    // non-trivial selectivity.
    const int64_t row = static_cast<int64_t>(rng->Uniform(table.num_rows()));
    const int64_t v = col.NumericAt(row);

    minihouse::ColumnPredicate pred;
    pred.column = c;
    pred.column_name = table.schema().column(c).name;
    switch (rng->Uniform(4)) {
      case 0:
        pred.op = minihouse::CompareOp::kEq;
        pred.operand = v;
        break;
      case 1:
        pred.op = minihouse::CompareOp::kLe;
        pred.operand = v;
        break;
      case 2:
        pred.op = minihouse::CompareOp::kGe;
        pred.operand = v;
        break;
      default: {
        pred.op = minihouse::CompareOp::kBetween;
        const int64_t row2 =
            static_cast<int64_t>(rng->Uniform(table.num_rows()));
        const int64_t v2 = col.NumericAt(row2);
        pred.operand = std::min(v, v2);
        pred.operand2 = std::max(v, v2);
        break;
      }
    }
    conjuncts.push_back(std::move(pred));
  }
  return conjuncts;
}

Result<MonitorReport> ModelMonitor::EvaluateBnModel(
    const minihouse::Table& table,
    const cardest::BnInferenceContext& context) {
  MonitorReport report;
  Rng rng(kProbeSeed);
  std::vector<double> qerrors;

  for (int p = 0; p < options_.probes; ++p) {
    const minihouse::Conjunction probe = GenerateProbe(table, &rng);
    if (probe.empty()) continue;

    // True cardinality by execution (the paper runs probes on ByteHouse).
    std::vector<uint8_t> selection;
    minihouse::EvaluateConjunction(probe, table, &selection);
    int64_t truth = 0;
    for (uint8_t s : selection) truth += s;

    const double estimate = context.EstimateCount(probe);
    qerrors.push_back(
        minihouse::FeedbackQError(estimate, static_cast<double>(truth)));
  }
  if (qerrors.empty()) {
    return Status::InvalidArgument("no probes could be generated for '" +
                                   table.name() + "'");
  }

  std::sort(qerrors.begin(), qerrors.end());
  report.probes = static_cast<int>(qerrors.size());
  report.median_qerror = qerrors[qerrors.size() / 2];
  report.p90_qerror = qerrors[static_cast<size_t>(0.9 * (qerrors.size() - 1))];
  report.max_qerror = qerrors.back();
  report.healthy = report.p90_qerror <= options_.qerror_threshold;
  health_[table.name()] = report.healthy;
  return report;
}

bool ModelMonitor::IsHealthy(const std::string& table) const {
  auto it = health_.find(table);
  return it == health_.end() ? true : it->second;
}

void ModelMonitor::SetHealth(const std::string& table, bool healthy) {
  health_[table] = healthy;
}

}  // namespace bytecard
