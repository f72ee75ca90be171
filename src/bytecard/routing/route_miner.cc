#include "bytecard/routing/route_miner.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "minihouse/query.h"

namespace bytecard::routing {

namespace {

// The families scored on every record. kFamilies[0], the general chain, is
// the baseline the others challenge. kCachedActual is scored separately (it
// replays the cache, not an estimator), and a family inapplicable for *any*
// record of a class is disqualified for the whole class — a route must
// answer every instantiation of its template.
constexpr RouteFamily kFamilies[] = {
    RouteFamily::kGeneral,     RouteFamily::kBn,
    RouteFamily::kFactorJoin,  RouteFamily::kTraditional,
    RouteFamily::kSample,      RouteFamily::kZoneMap,
};
constexpr size_t kNumFamilies = sizeof(kFamilies) / sizeof(kFamilies[0]);

struct FamilyScore {
  bool applicable = true;
  std::vector<double> qerrors;
  double total_latency_nanos = 0.0;
};

struct ClassStats {
  FamilyScore families[kNumFamilies];
  std::vector<double> cached_qerrors;
  double cached_latency_nanos = 0.0;
  std::set<std::string> tables;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 1.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Rebuilds the bound query a replay spec describes. Fails (false) when a
// table has left the catalog since the observation was recorded.
bool RebuildQuery(const minihouse::ReplaySpec& replay,
                  const minihouse::Database& db,
                  minihouse::BoundQuery* query) {
  for (size_t i = 0; i < replay.tables.size(); ++i) {
    Result<const minihouse::Table*> table = db.FindTable(replay.tables[i]);
    if (!table.ok()) return false;
    minihouse::BoundTableRef ref;
    ref.table = table.value();
    ref.alias = replay.tables[i];
    ref.filters = replay.filters[i];
    query->tables.push_back(std::move(ref));
  }
  for (const minihouse::ReplaySpec::Edge& e : replay.edges) {
    minihouse::JoinEdge edge;
    edge.left_table = e.left_table;
    edge.left_column = e.left_column;
    edge.right_table = e.right_table;
    edge.right_column = e.right_column;
    query->joins.push_back(edge);
  }
  for (const minihouse::ReplaySpec::GroupKey& g : replay.group_keys) {
    minihouse::GroupKeyRef key;
    key.table = g.table;
    key.column = g.column;
    query->group_by.push_back(key);
  }
  return true;
}

}  // namespace

Result<std::shared_ptr<const RoutingTable>> MineRoutes(
    const std::vector<minihouse::QueryFeedback>& trace,
    const EstimatorSnapshot& snapshot, const minihouse::Database& db,
    RouteMinerReport* report) {
  RouteMinerReport local_report;

  // Flatten the trace (oldest-first) and keep the newest window. The
  // cached-actual replay below walks the kept records in order, so its
  // "prior actual" state matches what the feedback cache would have held.
  std::vector<const minihouse::OperatorFeedback*> records;
  for (const minihouse::QueryFeedback& fb : trace) {
    for (const minihouse::OperatorFeedback& op : fb.ops) {
      ++local_report.records_scanned;
      if (op.route_class.empty() || !op.replay.valid) continue;
      records.push_back(&op);
    }
  }
  if (records.size() > kMaxReplayRecords) {
    records.erase(records.begin(),
                  records.end() - static_cast<long>(kMaxReplayRecords));
  }

  std::map<std::string, ClassStats> classes;
  std::map<std::string, double> prior_actual;  // fingerprint -> last actual

  for (const minihouse::OperatorFeedback* op : records) {
    minihouse::BoundQuery query;
    if (!RebuildQuery(op->replay, db, &query)) continue;
    ++local_report.records_replayed;

    // Same latch discipline as planning: zone maps and samples must not be
    // read while an ingest batch re-seals blocks underneath.
    minihouse::TableReadGuard guard(query);

    const bool is_scan = op->kind == minihouse::FeedbackKind::kScan;
    const double scan_rows =
        is_scan ? static_cast<double>(query.tables[0].table->num_rows()) : 1.0;
    cardest::CardEstRequest request;
    switch (op->kind) {
      case minihouse::FeedbackKind::kScan:
        request = cardest::CardEstRequest::Selectivity(*query.tables[0].table,
                                                       query.tables[0].filters);
        break;
      case minihouse::FeedbackKind::kJoin:
        request = cardest::CardEstRequest::Count(query);
        break;
      case minihouse::FeedbackKind::kGroupNdv:
        request = cardest::CardEstRequest::GroupNdv(query);
        break;
    }

    ClassStats& stats = classes[op->route_class];
    for (const std::string& name : op->replay.tables) stats.tables.insert(name);

    // Every family's answer to the same question, timed. kGeneral always
    // answers, and never consults the routing table, so re-mining a snapshot
    // whose routes are already live still scores against the true general
    // baseline.
    double general_q = 1.0;
    double general_nanos = 0.0;
    Stopwatch watch;
    for (size_t f = 0; f < kNumFamilies; ++f) {
      FamilyScore& score = stats.families[f];
      if (!score.applicable) continue;
      double value = 0.0;
      watch.Restart();
      if (!snapshot.EstimateWithFamily(kFamilies[f], request, nullptr,
                                       &value)) {
        score.applicable = false;
        continue;
      }
      const double nanos = static_cast<double>(watch.ElapsedNanos());
      score.total_latency_nanos += nanos;
      if (is_scan) value *= scan_rows;
      const double q = minihouse::FeedbackQError(value, op->actual);
      score.qerrors.push_back(q);
      if (f == 0) {
        general_q = q;
        general_nanos = nanos;
      }
    }

    // Cached-actual family: a repeat of an already-observed fingerprint is
    // answered by the prior actual at ~zero cost; first sightings pay the
    // general path. Classes dominated by repeats win this race.
    auto prior = prior_actual.find(op->fingerprint);
    if (prior != prior_actual.end()) {
      stats.cached_qerrors.push_back(
          minihouse::FeedbackQError(prior->second, op->actual));
    } else {
      stats.cached_qerrors.push_back(general_q);
      stats.cached_latency_nanos += general_nanos;
    }
    prior_actual[op->fingerprint] = op->actual;
  }

  auto table = std::make_shared<RoutingTable>();
  table->set_mined_epoch(snapshot.ingest_epoch());
  table->set_mined_snapshot_version(snapshot.version());

  local_report.classes_seen = static_cast<int64_t>(classes.size());
  for (auto& [cls, stats] : classes) {
    const FamilyScore& general = stats.families[0];
    const int64_t samples = static_cast<int64_t>(general.qerrors.size());
    if (samples < kMinSamplesPerClass) continue;
    const double n = static_cast<double>(samples);
    const double general_med = Median(general.qerrors);
    const double general_lat = general.total_latency_nanos / n;

    // Gather eligible challengers: at least as accurate as the general
    // router (median), applicable on every record of the class.
    struct Challenger {
      RouteFamily family;
      double median;
      double mean_latency;
    };
    std::vector<Challenger> eligible;
    for (size_t f = 1; f < kNumFamilies; ++f) {
      const FamilyScore& score = stats.families[f];
      if (!score.applicable || score.qerrors.empty()) continue;
      const double med = Median(score.qerrors);
      if (med > general_med) continue;
      eligible.push_back({kFamilies[f], med, score.total_latency_nanos / n});
    }
    {
      const double med = Median(stats.cached_qerrors);
      if (med <= general_med) {
        eligible.push_back(
            {RouteFamily::kCachedActual, med, stats.cached_latency_nanos / n});
      }
    }

    RouteDecision decision;
    decision.family = RouteFamily::kGeneral;
    decision.median_qerror = general_med;
    decision.general_qerror = general_med;
    decision.mean_latency_nanos = general_lat;
    decision.samples = samples;
    decision.tables.assign(stats.tables.begin(), stats.tables.end());

    if (!eligible.empty()) {
      double best_med = eligible[0].median;
      for (const Challenger& c : eligible) best_med = std::min(best_med, c.median);
      // Accuracy tie-band, then latency: among challengers within slack of
      // the best median, the cheapest one wins.
      const Challenger* winner = nullptr;
      for (const Challenger& c : eligible) {
        if (c.median > best_med * (1.0 + kAccuracySlack)) continue;
        if (winner == nullptr || c.mean_latency < winner->mean_latency) {
          winner = &c;
        }
      }
      // Promote only on strict improvement — better median, or equal
      // accuracy at lower cost. Otherwise the class keeps an explicit
      // general route (documents the decision; estimates unchanged).
      if (winner != nullptr && (winner->median < general_med ||
                                winner->mean_latency < general_lat)) {
        decision.family = winner->family;
        decision.median_qerror = winner->median;
        decision.mean_latency_nanos = winner->mean_latency;
      }
    }
    if (decision.family != RouteFamily::kGeneral) ++local_report.classes_routed;
    table->Insert(cls, std::move(decision));
  }

  if (report != nullptr) *report = local_report;
  return std::shared_ptr<const RoutingTable>(std::move(table));
}

}  // namespace bytecard::routing
