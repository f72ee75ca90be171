#ifndef BYTECARD_MINIHOUSE_DATABASE_H_
#define BYTECARD_MINIHOUSE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "minihouse/decode_cache.h"
#include "minihouse/table.h"

namespace bytecard::minihouse {

// The catalog: a named collection of tables. Plays the role of ByteHouse's
// storage layer as seen from the service layer — the analyzer binds queries
// against it, the Model Preprocessor scans it to decide what to train on.
class Database {
 public:
  Database() = default;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Takes ownership. Fails if a table with the same name exists.
  Status AddTable(std::unique_ptr<Table> table);

  Result<const Table*> FindTable(const std::string& name) const;
  Result<Table*> FindMutableTable(const std::string& name);

  std::vector<std::string> TableNames() const;
  int num_tables() const { return static_cast<int>(tables_.size()); }

  int64_t TotalRows() const;

  // Simulated-storage tuning for this database only (see StorageProfile).
  // Thread-safe; benches may retune while queries are in flight, and two
  // databases never share a knob.
  void SetStorageCostFactor(int factor) {
    storage_profile_.cost_factor.store(factor < 0 ? 0 : factor,
                                       std::memory_order_relaxed);
  }
  void SetStorageBlockLatencyNanos(int64_t nanos) {
    storage_profile_.block_latency_nanos.store(nanos < 0 ? 0 : nanos,
                                               std::memory_order_relaxed);
  }
  const StorageProfile& storage_profile() const { return storage_profile_; }

  // Budget for the shared decoded-block cache (see DecodeCache). Thread-safe
  // to retune while queries are in flight; shrinking evicts immediately.
  void SetDecodeCacheBytes(int64_t bytes) {
    decode_cache_.SetBudgetBytes(bytes);
  }
  DecodeCache* decode_cache() { return &decode_cache_; }
  const DecodeCache& decode_cache() const { return decode_cache_; }

  // Bytes held in encoded blocks across all tables.
  int64_t EncodedBytes() const;

 private:
  // Declared before tables_ so tables (whose columns invalidate their cache
  // entries on destruction) are destroyed while the cache is still alive.
  DecodeCache decode_cache_;
  StorageProfile storage_profile_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace bytecard::minihouse

#endif  // BYTECARD_MINIHOUSE_DATABASE_H_
