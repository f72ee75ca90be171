// Shared helpers for tests: a deterministic toy catalog with known contents,
// and per-process scratch directories.

#ifndef BYTECARD_TESTS_TEST_UTIL_H_
#define BYTECARD_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "minihouse/database.h"
#include "minihouse/query.h"

namespace bytecard::testutil {

// FNV-1a, 64-bit: a stable fingerprint of one artifact's bytes.
inline uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// An empty scratch directory under the system temp dir, removed on
// destruction. The name carries the process id: ctest runs every TEST as its
// own process, so parallel runs of one fixture never share (and delete each
// other's) model artifacts.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("bytecard_test_" + name + "_" + std::to_string(::getpid())))
                  .string()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

// Builds a small two-table star:
//   dim(id 0..99, category = id % 5, flag = id < 20 ? 1 : 0)
//   fact(dim_id zipf-ish over 0..99, value = row % 50, bucket = value / 10)
// with `fact_rows` fact rows. Deterministic for a given seed.
inline std::unique_ptr<minihouse::Database> BuildToyDatabase(
    int64_t fact_rows = 2000, uint64_t seed = 71) {
  using minihouse::DataType;
  auto db = std::make_unique<minihouse::Database>();

  {
    minihouse::TableSchema schema({{"id", DataType::kInt64},
                                   {"category", DataType::kInt64},
                                   {"flag", DataType::kInt64}});
    auto dim = std::make_unique<minihouse::Table>("dim", schema);
    for (int64_t i = 0; i < 100; ++i) {
      dim->mutable_column(0)->AppendInt(i);
      dim->mutable_column(1)->AppendInt(i % 5);
      dim->mutable_column(2)->AppendInt(i < 20 ? 1 : 0);
    }
    BC_CHECK_OK(dim->Seal());
    BC_CHECK_OK(db->AddTable(std::move(dim)));
  }
  {
    minihouse::TableSchema schema({{"dim_id", DataType::kInt64},
                                   {"value", DataType::kInt64},
                                   {"bucket", DataType::kInt64}});
    auto fact = std::make_unique<minihouse::Table>("fact", schema);
    Rng rng(seed);
    ZipfDistribution zipf(100, 0.9);
    for (int64_t i = 0; i < fact_rows; ++i) {
      fact->mutable_column(0)->AppendInt(
          static_cast<int64_t>(zipf.Sample(&rng)));
      const int64_t value = i % 50;
      fact->mutable_column(1)->AppendInt(value);
      fact->mutable_column(2)->AppendInt(value / 10);
    }
    BC_CHECK_OK(fact->Seal());
    BC_CHECK_OK(db->AddTable(std::move(fact)));
  }
  return db;
}

// fact JOIN dim ON fact.dim_id = dim.id, with optional filters installed by
// the caller. Table 0 = fact, table 1 = dim.
inline minihouse::BoundQuery ToyJoinQuery(const minihouse::Database& db) {
  minihouse::BoundQuery query;
  minihouse::BoundTableRef fact;
  fact.table = db.FindTable("fact").value();
  fact.alias = "fact";
  minihouse::BoundTableRef dim;
  dim.table = db.FindTable("dim").value();
  dim.alias = "dim";
  query.tables = {fact, dim};
  query.joins = {{0, 0, 1, 0}};  // fact.dim_id = dim.id
  query.aggs = {{minihouse::AggFunc::kCountStar, -1, -1}};
  return query;
}

}  // namespace bytecard::testutil

#endif  // BYTECARD_TESTS_TEST_UTIL_H_
