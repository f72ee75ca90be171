#ifndef BYTECARD_MINIHOUSE_TABLE_H_
#define BYTECARD_MINIHOUSE_TABLE_H_

#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "minihouse/column.h"
#include "minihouse/schema.h"

namespace bytecard::minihouse {

// A stored table: schema + columns. Rows arrive by bulk build (the
// generators build column-wise) or by streaming ingest, which appends and
// re-seals under the exclusive latch; query processing only reads, under the
// shared latch, matching the paper's separation of data ingestion from query
// execution.
class Table {
 public:
  Table(std::string name, TableSchema schema);

  const std::string& name() const { return name_; }
  const TableSchema& schema() const { return schema_; }

  int num_columns() const { return schema_.num_columns(); }
  int64_t num_rows() const { return num_rows_; }
  int64_t num_blocks() const {
    return (num_rows_ + kBlockRows - 1) / kBlockRows;
  }

  Column* mutable_column(int i) { return &columns_[i]; }
  const Column& column(int i) const { return columns_[i]; }

  // Returns the column by name or an error.
  Result<const Column*> FindColumn(const std::string& name) const;
  int FindColumnIndex(const std::string& name) const {
    return schema_.FindColumn(name);
  }

  // Recomputes num_rows_ from column 0, checks all columns agree, encodes
  // each scalar column's raw rows into blocks (releasing the raw storage),
  // and refreshes every column's min/max domain statistics from the freshly
  // stamped zone maps. Call once after bulk-building (or appending to) the
  // columns.
  Status Seal();

  // Column `i`'s numeric min/max as of the last Seal — the specialization
  // layer's input signal.
  const ColumnDomain& domain(int i) const { return columns_[i].domain(); }

  // Forwards the owning database's simulated-storage config and shared
  // decode cache to every column. Database::AddTable calls this; columns_
  // never reallocates after construction, so the pointers each column keeps
  // stay valid.
  void AttachStorage(const StorageProfile* profile, DecodeCache* cache) {
    storage_profile_ = profile;
    decode_cache_ = cache;
    for (Column& c : columns_) c.AttachStorage(profile, cache);
  }

  // The simulated-storage config this table's columns read through, or
  // nullptr for a detached table (no cost, no latency).
  const StorageProfile* storage_profile() const { return storage_profile_; }

  // The shared decode cache this table's columns decode through, or nullptr
  // for a detached table.
  const DecodeCache* decode_cache() const { return decode_cache_; }

  int64_t MemoryBytes() const;

  // Bytes held in encoded blocks across all columns (0 before the first
  // Seal).
  int64_t EncodedBytes() const;

  // Append-vs-read latch. The streaming-ingest path takes it exclusively
  // around append+Seal; query planning/execution and model training take it
  // shared for their whole read window (see TableReadGuard in query.h).
  // Lock-order rule: never acquire a lifecycle mutex (ByteCard) while
  // holding a table latch — lifecycle holders may take table latches, so the
  // reverse order deadlocks. DataIngestor releases the latch before firing
  // observers for exactly this reason.
  std::shared_mutex& latch() const { return latch_; }

 private:
  std::string name_;
  TableSchema schema_;
  std::vector<Column> columns_;
  int64_t num_rows_ = 0;
  const StorageProfile* storage_profile_ = nullptr;
  DecodeCache* decode_cache_ = nullptr;
  mutable std::shared_mutex latch_;
};

}  // namespace bytecard::minihouse

#endif  // BYTECARD_MINIHOUSE_TABLE_H_
