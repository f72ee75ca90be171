#include "minihouse/database.h"

namespace bytecard::minihouse {

Status Database::AddTable(std::unique_ptr<Table> table) {
  const std::string& name = table->name();
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  table->AttachStorage(&storage_profile_, &decode_cache_);
  tables_[name] = std::move(table);
  return Status::Ok();
}

Result<const Table*> Database::FindTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' not found");
  }
  return static_cast<const Table*>(it->second.get());
}

Result<Table*> Database::FindMutableTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' not found");
  }
  return it->second.get();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

int64_t Database::TotalRows() const {
  int64_t rows = 0;
  for (const auto& [_, t] : tables_) rows += t->num_rows();
  return rows;
}

int64_t Database::EncodedBytes() const {
  int64_t bytes = 0;
  for (const auto& [_, t] : tables_) bytes += t->EncodedBytes();
  return bytes;
}

}  // namespace bytecard::minihouse
