#include "block/name_blocking.h"

#include <algorithm>
#include <numeric>

namespace distinct {
namespace {

/// Union-find with path compression.
class DisjointSets {
 public:
  explicit DisjointSets(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

StatusOr<std::vector<NameBlock>> BlockSimilarNames(
    const Database& db, const ReferenceSpec& spec,
    const BlockingOptions& options) {
  if (options.threshold <= 0.0 || options.threshold > 1.0) {
    return InvalidArgumentError("blocking threshold must be in (0, 1]");
  }
  auto resolved = ResolveReferenceSpec(db, spec);
  DISTINCT_RETURN_IF_ERROR(resolved.status());
  const Table& name_table = db.table(resolved->name_table_id);

  QGramIndex index(options.q);
  std::vector<int64_t> rows;
  rows.reserve(static_cast<size_t>(name_table.num_rows()));
  for (int64_t row = 0; row < name_table.num_rows(); ++row) {
    if (name_table.IsNull(row, resolved->name_column)) {
      continue;  // a NULL name is no name group (Distinct::AbsorbNameRows)
    }
    index.Add(name_table.GetString(row, resolved->name_column));
    rows.push_back(row);
  }

  DisjointSets components(rows.size());
  for (const SimilarPair& pair : index.SimilarPairs(options.threshold)) {
    components.Union(static_cast<size_t>(pair.id1),
                     static_cast<size_t>(pair.id2));
  }

  // Gather components.
  std::vector<std::vector<size_t>> members_of_root(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    members_of_root[components.Find(i)].push_back(i);
  }
  std::vector<NameBlock> blocks;
  for (const std::vector<size_t>& members : members_of_root) {
    if (members.empty()) {
      continue;
    }
    if (members.size() == 1 && !options.include_singletons) {
      continue;
    }
    NameBlock block;
    for (const size_t member : members) {
      block.names.push_back(index.name(static_cast<int>(member)));
      block.name_rows.push_back(rows[member]);
    }
    blocks.push_back(std::move(block));
  }
  std::stable_sort(blocks.begin(), blocks.end(),
                   [](const NameBlock& a, const NameBlock& b) {
                     if (a.names.size() != b.names.size()) {
                       return a.names.size() > b.names.size();
                     }
                     return a.name_rows.front() < b.name_rows.front();
                   });
  return blocks;
}

}  // namespace distinct
