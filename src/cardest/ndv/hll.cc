#include "cardest/ndv/hll.h"

#include "minihouse/column.h"
#include "minihouse/schema.h"

namespace bytecard::cardest {

void NdvSketchCatalog::SeedTable(const minihouse::Table& table,
                                 int precision) {
  for (int c = 0; c < table.num_columns(); ++c) {
    const minihouse::Column& column = table.column(c);
    if (column.type() == minihouse::DataType::kArray) continue;
    stats::HyperLogLog sketch(precision);
    const int64_t rows = column.num_rows();
    for (int64_t i = 0; i < rows; ++i) sketch.Add(column.NumericAt(i));
    sketches_.insert_or_assign({table.name(), c}, std::move(sketch));
  }
}

const stats::HyperLogLog* NdvSketchCatalog::Find(const std::string& table,
                                                 int column) const {
  auto it = sketches_.find({table, column});
  return it == sketches_.end() ? nullptr : &it->second;
}

stats::HyperLogLog* NdvSketchCatalog::FindMutable(const std::string& table,
                                                  int column) {
  auto it = sketches_.find({table, column});
  return it == sketches_.end() ? nullptr : &it->second;
}

double NdvSketchCatalog::Estimate(const std::string& table, int column) const {
  const stats::HyperLogLog* sketch = Find(table, column);
  return sketch == nullptr ? -1.0 : sketch->Estimate();
}

}  // namespace bytecard::cardest
