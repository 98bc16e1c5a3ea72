#include "dblp/stats.h"

#include <unordered_map>

#include "common/string_util.h"
#include "dblp/schema.h"

namespace distinct {

std::string DblpStats::DebugString() const {
  std::string out = StrFormat(
      "authors(names)=%lld papers=%lld references=%lld conferences=%lld "
      "proceedings=%lld refs/paper=%.2f refs/name=%.2f\n",
      static_cast<long long>(num_author_names),
      static_cast<long long>(num_papers),
      static_cast<long long>(num_references),
      static_cast<long long>(num_conferences),
      static_cast<long long>(num_proceedings), refs_per_paper,
      refs_per_name);
  out += StrFormat(
      "names by ref count: 1:%lld 2:%lld 3-5:%lld 6-10:%lld 11+:%lld",
      static_cast<long long>(name_count_by_refs[0]),
      static_cast<long long>(name_count_by_refs[1]),
      static_cast<long long>(name_count_by_refs[2]),
      static_cast<long long>(name_count_by_refs[3]),
      static_cast<long long>(name_count_by_refs[4]));
  return out;
}

StatusOr<DblpStats> ComputeDblpStats(const Database& db) {
  DblpStats stats;
  auto authors = db.FindTable(kAuthorsTable);
  DISTINCT_RETURN_IF_ERROR(authors.status());
  auto publications = db.FindTable(kPublicationsTable);
  DISTINCT_RETURN_IF_ERROR(publications.status());
  auto publish = db.FindTable(kPublishTable);
  DISTINCT_RETURN_IF_ERROR(publish.status());
  auto conferences = db.FindTable(kConferencesTable);
  DISTINCT_RETURN_IF_ERROR(conferences.status());
  auto proceedings = db.FindTable(kProceedingsTable);
  DISTINCT_RETURN_IF_ERROR(proceedings.status());

  stats.num_author_names = (*authors)->num_rows();
  stats.num_papers = (*publications)->num_rows();
  stats.num_references = (*publish)->num_rows();
  stats.num_conferences = (*conferences)->num_rows();
  stats.num_proceedings = (*proceedings)->num_rows();
  if (stats.num_papers > 0) {
    stats.refs_per_paper = static_cast<double>(stats.num_references) /
                           static_cast<double>(stats.num_papers);
  }
  if (stats.num_author_names > 0) {
    stats.refs_per_name = static_cast<double>(stats.num_references) /
                          static_cast<double>(stats.num_author_names);
  }

  auto author_col = (*publish)->ColumnIndex("author_id");
  DISTINCT_RETURN_IF_ERROR(author_col.status());
  std::unordered_map<int64_t, int64_t> refs_per_author;
  for (int64_t row = 0; row < (*publish)->num_rows(); ++row) {
    ++refs_per_author[(*publish)->GetInt(row, *author_col)];
  }
  for (const auto& [author, count] : refs_per_author) {
    if (count == 1) {
      ++stats.name_count_by_refs[0];
    } else if (count == 2) {
      ++stats.name_count_by_refs[1];
    } else if (count <= 5) {
      ++stats.name_count_by_refs[2];
    } else if (count <= 10) {
      ++stats.name_count_by_refs[3];
    } else {
      ++stats.name_count_by_refs[4];
    }
  }
  return stats;
}

StatusOr<int64_t> CountReferencesForName(const Database& db,
                                         const ReferenceSpec& spec,
                                         const std::string& name) {
  auto resolved = ResolveReferenceSpec(db, spec);
  DISTINCT_RETURN_IF_ERROR(resolved.status());
  const Table& name_table = db.table(resolved->name_table_id);
  const Table& ref_table = db.table(resolved->reference_table_id);

  // Find the name row.
  int64_t name_pk = -1;
  for (int64_t row = 0; row < name_table.num_rows(); ++row) {
    if (!name_table.IsNull(row, resolved->name_column) &&
        name_table.GetString(row, resolved->name_column) == name) {
      name_pk = name_table.GetInt(row, name_table.primary_key_column());
      break;
    }
  }
  if (name_pk < 0) {
    return static_cast<int64_t>(0);
  }
  int64_t count = 0;
  for (int64_t row = 0; row < ref_table.num_rows(); ++row) {
    if (!ref_table.IsNull(row, resolved->identity_column) &&
        ref_table.GetInt(row, resolved->identity_column) == name_pk) {
      ++count;
    }
  }
  return count;
}

}  // namespace distinct
