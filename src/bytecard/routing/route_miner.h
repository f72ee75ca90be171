#ifndef BYTECARD_BYTECARD_ROUTING_ROUTE_MINER_H_
#define BYTECARD_BYTECARD_ROUTING_ROUTE_MINER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bytecard/routing/routing_table.h"
#include "bytecard/snapshot.h"
#include "minihouse/database.h"
#include "minihouse/feedback.h"

namespace bytecard::routing {

// A class needs at least this many replayable observations before a route
// decision is mined for it (thin evidence keeps the general default).
inline constexpr int kMinSamplesPerClass = 3;
// Newest-first cap on trace records replayed (bounds one mining pass).
inline constexpr size_t kMaxReplayRecords = 4096;
// Accuracy tie-band: among families whose median q-error beats the general
// router, any within (1 + slack) of the best median competes on latency.
inline constexpr double kAccuracySlack = 0.10;

// What one mining pass did (surfaced through ByteCard::MineRoutes).
struct RouteMinerReport {
  int64_t records_scanned = 0;   // feedback observations considered
  int64_t records_replayed = 0;  // observations with a valid replay spec
  int64_t classes_seen = 0;      // distinct route classes in the trace
  int64_t classes_routed = 0;    // classes given a non-default route
};

// Mines a RoutingTable from a recorded feedback trace: replays each
// observation's estimation question against `snapshot` through every
// applicable estimator family, scores families on q-error against the
// recorded actuals plus estimation latency, and emits one decision per
// route class with at least kMinSamplesPerClass observations: the
// empirically-best family, or an explicit kGeneral entry when no family
// strictly beats the general router (the decision is recorded, estimates
// are unchanged). Thinner classes get no entry, so the general path remains
// the default for everything unseen.
//
// Grouping uses the *recorded* route-class strings (stamped at execution
// time), never classes recomputed from replays: replay specs renumber
// tables locally, which would perturb the self-join "#<idx>" suffixes.
//
// `trace` is oldest-first (FeedbackLog::Snapshot order). The result is
// stamped with the snapshot's ingest epoch and version; publish it via
// SnapshotBuilder::SetRoutingTable.
Result<std::shared_ptr<const RoutingTable>> MineRoutes(
    const std::vector<minihouse::QueryFeedback>& trace,
    const EstimatorSnapshot& snapshot, const minihouse::Database& db,
    RouteMinerReport* report = nullptr);

}  // namespace bytecard::routing

#endif  // BYTECARD_BYTECARD_ROUTING_ROUTE_MINER_H_
