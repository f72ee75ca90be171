#ifndef BYTECARD_BYTECARD_ROUTING_ROUTING_TABLE_H_
#define BYTECARD_BYTECARD_ROUTING_ROUTING_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/serde.h"
#include "common/status.h"

namespace bytecard::routing {

// The estimator families the adaptive router chooses between. Every family
// except kGeneral is one concrete answer path inside EstimatorSnapshot;
// kGeneral is the tiered BN → FactorJoin → fallback dispatch the snapshot
// serves for unrouted classes, and kCachedActual marks classes whose traffic
// is dominated by repeats the feedback cache answers upstream (at the
// snapshot level it resolves like kGeneral — the cache intercepts in
// EstimationContext before the snapshot is ever asked).
enum class RouteFamily : uint32_t {
  kGeneral = 0,
  kBn = 1,
  kFactorJoin = 2,
  kTraditional = 3,
  kSample = 4,
  kZoneMap = 5,
  kCachedActual = 6,
};

inline constexpr uint32_t kNumRouteFamilies = 7;

const char* RouteFamilyName(RouteFamily family);

// One mined decision: which family serves a route class, and the replayed
// evidence that justified it (median q-error vs the general router, mean
// per-estimate latency, sample count). `tables` scopes drift demotion — a
// route touching a demoted table is dropped (WithoutTable).
struct RouteDecision {
  RouteFamily family = RouteFamily::kGeneral;
  double median_qerror = 1.0;        // winner's median q-error on the trace
  double general_qerror = 1.0;       // general router's median on the class
  double mean_latency_nanos = 0.0;   // winner's mean per-estimate latency
  int64_t samples = 0;               // trace observations behind the score
  std::vector<std::string> tables;   // base tables the class touches
};

// The per-class routing decisions one MineRoutes pass produced. Immutable
// once published inside an EstimatorSnapshot (lifecycle writers build a new
// one — or filter a copy — and publish a successor snapshot; see
// SnapshotBuilder::SetRoutingTable). Stamped with the ingest epoch of the
// snapshot whose trace was mined: a snapshot whose epoch has moved past the
// stamp treats every route as stale and serves the general path until routes
// are re-mined.
class RoutingTable {
 public:
  RoutingTable() = default;

  void Insert(std::string route_class, RouteDecision decision) {
    routes_[std::move(route_class)] = std::move(decision);
  }

  // Null when the class has no mined route (general dispatch).
  const RouteDecision* Find(const std::string& route_class) const {
    auto it = routes_.find(route_class);
    return it == routes_.end() ? nullptr : &it->second;
  }

  bool empty() const { return routes_.empty(); }
  size_t size() const { return routes_.size(); }
  const std::map<std::string, RouteDecision>& routes() const {
    return routes_;
  }

  // Ingest epoch of the snapshot the trace was replayed against.
  uint64_t mined_epoch() const { return mined_epoch_; }
  void set_mined_epoch(uint64_t epoch) { mined_epoch_ = epoch; }
  // Snapshot version mined against (provenance only).
  uint64_t mined_snapshot_version() const { return mined_snapshot_version_; }
  void set_mined_snapshot_version(uint64_t v) { mined_snapshot_version_ = v; }

  // Drift demotion: a copy without any route touching `table`. Routes were
  // scored against a model regime that included the now-drifted table, so
  // their evidence is void; unaffected classes keep serving.
  std::shared_ptr<const RoutingTable> WithoutTable(
      const std::string& table) const;

  // Structural admission check (the SnapshotBuilder runs this before a
  // routing table may enter a snapshot): known families, positive sample
  // counts, finite non-negative scores.
  Status Validate() const;

  void Serialize(BufferWriter* writer) const;
  static Result<RoutingTable> Deserialize(const std::string& bytes);

 private:
  std::map<std::string, RouteDecision> routes_;
  uint64_t mined_epoch_ = 0;
  uint64_t mined_snapshot_version_ = 0;
};

}  // namespace bytecard::routing

#endif  // BYTECARD_BYTECARD_ROUTING_ROUTING_TABLE_H_
