#include "bytecard/model_preprocessor.h"

#include <algorithm>
#include <map>

namespace bytecard {

minihouse::MlType ModelPreprocessor::MapType(minihouse::DataType type) {
  switch (type) {
    case minihouse::DataType::kInt64:
    case minihouse::DataType::kString:
      return minihouse::MlType::kCategorical;
    case minihouse::DataType::kFloat64:
      return minihouse::MlType::kContinuous;
    case minihouse::DataType::kArray:
      return minihouse::MlType::kUnsupported;
  }
  return minihouse::MlType::kUnsupported;
}

std::vector<int> ModelPreprocessor::SelectedColumns(
    const minihouse::Table& table) {
  std::vector<int> columns;
  for (int c = 0; c < table.num_columns(); ++c) {
    if (MapType(table.schema().column(c).type) !=
        minihouse::MlType::kUnsupported) {
      columns.push_back(c);
    }
  }
  return columns;
}

std::vector<std::vector<cardest::JoinKeyRef>>
ModelPreprocessor::CollectJoinPatterns(
    const std::vector<minihouse::BoundQuery>& queries) {
  // Union-find over join keys observed across the workload.
  std::map<cardest::JoinKeyRef, int> index;
  std::vector<int> parent;

  auto find_or_add = [&](const cardest::JoinKeyRef& key) {
    auto [it, inserted] = index.try_emplace(key, parent.size());
    if (inserted) parent.push_back(static_cast<int>(parent.size()));
    return it->second;
  };
  auto find_root = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  for (const minihouse::BoundQuery& query : queries) {
    for (const minihouse::JoinEdge& e : query.joins) {
      const cardest::JoinKeyRef left{
          query.tables[e.left_table].table->name(), e.left_column};
      const cardest::JoinKeyRef right{
          query.tables[e.right_table].table->name(), e.right_column};
      const int a = find_or_add(left);
      const int b = find_or_add(right);
      parent[find_root(a)] = find_root(b);
    }
  }

  std::map<int, std::vector<cardest::JoinKeyRef>> groups;
  for (const auto& [key, idx] : index) {
    groups[find_root(idx)].push_back(key);
  }
  std::vector<std::vector<cardest::JoinKeyRef>> out;
  out.reserve(groups.size());
  for (auto& [_, members] : groups) {
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  return out;
}

}  // namespace bytecard
