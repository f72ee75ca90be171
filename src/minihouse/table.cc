#include "minihouse/table.h"

namespace bytecard::minihouse {

Table::Table(std::string name, TableSchema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  columns_.reserve(schema_.num_columns());
  for (int i = 0; i < schema_.num_columns(); ++i) {
    columns_.emplace_back(schema_.column(i).type);
  }
}

Result<const Column*> Table::FindColumn(const std::string& name) const {
  const int idx = schema_.FindColumn(name);
  if (idx < 0) {
    return Status::NotFound("column '" + name + "' not in table '" + name_ +
                            "'");
  }
  return &columns_[idx];
}

Status Table::Seal() {
  if (columns_.empty()) {
    num_rows_ = 0;
    return Status::Ok();
  }
  num_rows_ = columns_[0].num_rows();
  for (int i = 1; i < num_columns(); ++i) {
    if (columns_[i].num_rows() != num_rows_) {
      return Status::Internal("table '" + name_ + "': column '" +
                              schema_.column(i).name +
                              "' row count mismatch");
    }
  }
  // Storage encoding and domain statistics ride the seal: every load/append
  // path ends here, so blocks, zone maps, and per-column min/max are exact
  // whenever queries can see the rows.
  for (Column& c : columns_) c.SealStorage();
  return Status::Ok();
}

int64_t Table::MemoryBytes() const {
  int64_t bytes = 0;
  for (const auto& c : columns_) bytes += c.MemoryBytes();
  return bytes;
}

int64_t Table::EncodedBytes() const {
  int64_t bytes = 0;
  for (const auto& c : columns_) bytes += c.EncodedBytes();
  return bytes;
}

}  // namespace bytecard::minihouse
