#include "train/rare_names.h"

#include <unordered_map>

#include "common/string_util.h"

namespace distinct {

StatusOr<RareNameIndex> RareNameIndex::Build(const Database& db,
                                             const ReferenceSpec& spec,
                                             const RareNameOptions& options) {
  auto resolved = ResolveReferenceSpec(db, spec);
  DISTINCT_RETURN_IF_ERROR(resolved.status());
  const Table& name_table = db.table(resolved->name_table_id);
  const Table& ref_table = db.table(resolved->reference_table_id);

  // Frequency of each first/last part over distinct names.
  std::unordered_map<std::string, int> first_counts;
  std::unordered_map<std::string, int> last_counts;
  for (int64_t row = 0; row < name_table.num_rows(); ++row) {
    if (name_table.IsNull(row, resolved->name_column)) {
      continue;
    }
    const std::string& name = name_table.GetString(row, resolved->name_column);
    if (StripWhitespace(name).empty()) {
      continue;  // nameless rows are not evidence of part frequency
    }
    // A single-token name contributes once to each map (its only token is
    // both first and last part); it is excluded from selection below.
    ++first_counts[std::string(FirstNameOf(name))];
    ++last_counts[std::string(LastNameOf(name))];
  }

  // References grouped by name row (via the name table's primary key).
  std::unordered_map<int64_t, std::vector<int32_t>> refs_by_pk;
  for (int64_t row = 0; row < ref_table.num_rows(); ++row) {
    if (ref_table.IsNull(row, resolved->identity_column)) {
      continue;
    }
    refs_by_pk[ref_table.GetInt(row, resolved->identity_column)].push_back(
        static_cast<int32_t>(row));
  }

  RareNameIndex index;
  index.names_scanned_ = name_table.num_rows();
  const int pk_col = name_table.primary_key_column();
  for (int64_t row = 0; row < name_table.num_rows(); ++row) {
    if (name_table.IsNull(row, resolved->name_column)) {
      continue;  // a NULL name is no name group (Distinct::AbsorbNameRows)
    }
    const std::string& name = name_table.GetString(row, resolved->name_column);
    const std::string first(FirstNameOf(name));
    const std::string last(LastNameOf(name));
    if (first == last) {
      continue;  // single-token name: rarity heuristic does not apply
    }
    if (first_counts[first] > options.max_first_name_count ||
        last_counts[last] > options.max_last_name_count) {
      continue;
    }
    auto it = refs_by_pk.find(name_table.GetInt(row, pk_col));
    if (it == refs_by_pk.end()) {
      continue;
    }
    const auto& refs = it->second;
    if (static_cast<int>(refs.size()) < options.min_refs ||
        static_cast<int>(refs.size()) > options.max_refs) {
      continue;
    }
    UniqueAuthor author;
    author.name_row = row;
    author.name = name;
    author.publish_rows = refs;
    index.unique_authors_.push_back(std::move(author));
  }
  return index;
}

}  // namespace distinct
