#include "bytecard/routing/routing_table.h"

#include <cmath>
#include <utility>

namespace bytecard::routing {

namespace {
constexpr uint32_t kMagic = 0x54524342;  // "BCRT"
constexpr uint32_t kFormatVersion = 1;
}  // namespace

const char* RouteFamilyName(RouteFamily family) {
  switch (family) {
    case RouteFamily::kGeneral:
      return "general";
    case RouteFamily::kBn:
      return "bn";
    case RouteFamily::kFactorJoin:
      return "factorjoin";
    case RouteFamily::kTraditional:
      return "traditional";
    case RouteFamily::kSample:
      return "sample";
    case RouteFamily::kZoneMap:
      return "zonemap";
    case RouteFamily::kCachedActual:
      return "cached";
  }
  return "unknown";
}

std::shared_ptr<const RoutingTable> RoutingTable::WithoutTable(
    const std::string& table) const {
  auto filtered = std::make_shared<RoutingTable>();
  filtered->mined_epoch_ = mined_epoch_;
  filtered->mined_snapshot_version_ = mined_snapshot_version_;
  for (const auto& [cls, decision] : routes_) {
    bool touches = false;
    for (const std::string& t : decision.tables) {
      if (t == table) {
        touches = true;
        break;
      }
    }
    if (!touches) filtered->routes_.emplace(cls, decision);
  }
  return filtered;
}

Status RoutingTable::Validate() const {
  for (const auto& [cls, decision] : routes_) {
    if (cls.empty()) {
      return Status::InvalidModel("routing table: empty route class");
    }
    if (static_cast<uint32_t>(decision.family) >= kNumRouteFamilies) {
      return Status::InvalidModel("routing table: unknown family for class " +
                                  cls);
    }
    if (decision.samples <= 0) {
      return Status::InvalidModel(
          "routing table: non-positive sample count for class " + cls);
    }
    if (!std::isfinite(decision.median_qerror) ||
        decision.median_qerror < 1.0 ||
        !std::isfinite(decision.general_qerror) ||
        decision.general_qerror < 1.0) {
      return Status::InvalidModel(
          "routing table: q-error out of range for class " + cls);
    }
    if (!std::isfinite(decision.mean_latency_nanos) ||
        decision.mean_latency_nanos < 0.0) {
      return Status::InvalidModel(
          "routing table: negative latency for class " + cls);
    }
  }
  return Status::Ok();
}

void RoutingTable::Serialize(BufferWriter* writer) const {
  writer->WriteU32(kMagic);
  writer->WriteU32(kFormatVersion);
  writer->WriteU64(mined_epoch_);
  writer->WriteU64(mined_snapshot_version_);
  writer->WriteU64(routes_.size());
  for (const auto& [cls, decision] : routes_) {
    writer->WriteString(cls);
    writer->WriteU32(static_cast<uint32_t>(decision.family));
    writer->WriteDouble(decision.median_qerror);
    writer->WriteDouble(decision.general_qerror);
    writer->WriteDouble(decision.mean_latency_nanos);
    writer->WriteI64(decision.samples);
    writer->WriteU64(decision.tables.size());
    for (const std::string& t : decision.tables) writer->WriteString(t);
  }
}

Result<RoutingTable> RoutingTable::Deserialize(const std::string& bytes) {
  BufferReader reader(bytes);
  uint32_t magic = 0;
  uint32_t format = 0;
  BC_RETURN_IF_ERROR(reader.ReadU32(&magic));
  if (magic != kMagic) {
    return Status::InvalidModel("routing table: bad magic");
  }
  BC_RETURN_IF_ERROR(reader.ReadU32(&format));
  if (format != kFormatVersion) {
    return Status::InvalidModel("routing table: unsupported format version");
  }
  RoutingTable table;
  BC_RETURN_IF_ERROR(reader.ReadU64(&table.mined_epoch_));
  BC_RETURN_IF_ERROR(reader.ReadU64(&table.mined_snapshot_version_));
  uint64_t count = 0;
  // A route: class length, family, three doubles, samples, table count.
  BC_RETURN_IF_ERROR(reader.ReadCount(
      &count, sizeof(uint64_t) + sizeof(uint32_t) + 3 * sizeof(double) +
                  2 * sizeof(uint64_t)));
  for (uint64_t i = 0; i < count; ++i) {
    std::string cls;
    BC_RETURN_IF_ERROR(reader.ReadString(&cls));
    RouteDecision decision;
    uint32_t family = 0;
    BC_RETURN_IF_ERROR(reader.ReadU32(&family));
    decision.family = static_cast<RouteFamily>(family);
    BC_RETURN_IF_ERROR(reader.ReadDouble(&decision.median_qerror));
    BC_RETURN_IF_ERROR(reader.ReadDouble(&decision.general_qerror));
    BC_RETURN_IF_ERROR(reader.ReadDouble(&decision.mean_latency_nanos));
    BC_RETURN_IF_ERROR(reader.ReadI64(&decision.samples));
    uint64_t num_tables = 0;
    BC_RETURN_IF_ERROR(reader.ReadCount(&num_tables, sizeof(uint64_t)));
    decision.tables.reserve(num_tables);
    for (uint64_t t = 0; t < num_tables; ++t) {
      std::string name;
      BC_RETURN_IF_ERROR(reader.ReadString(&name));
      decision.tables.push_back(std::move(name));
    }
    table.routes_.emplace(std::move(cls), std::move(decision));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidModel("routing table: trailing bytes");
  }
  BC_RETURN_IF_ERROR(table.Validate());
  return table;
}

}  // namespace bytecard::routing
