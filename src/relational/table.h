// In-memory relational table with dictionary-encoded string columns.
//
// Rows are stored columnar-free as int64 vectors: int64 cells hold their
// value, string cells hold a per-column dictionary id, NULL cells hold
// `kNullCell`. A table may declare one int64 primary-key column (unique,
// hash-indexed) and any number of foreign-key columns referencing other
// tables' primary keys.

#ifndef DISTINCT_RELATIONAL_TABLE_H_
#define DISTINCT_RELATIONAL_TABLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/dictionary.h"
#include "common/status.h"
#include "relational/value.h"

namespace distinct {

/// Declaration of one table column.
struct ColumnSpec {
  std::string name;
  ColumnType type = ColumnType::kInt64;
  /// At most one column per table; must be kInt64; values must be unique.
  bool is_primary_key = false;
  /// Non-empty marks this column a foreign key to `fk_table`'s primary key.
  /// FK columns must be kInt64.
  std::string fk_table;
};

/// Raw cell payload used for NULL cells.
inline constexpr int64_t kNullCell = INT64_MIN;

/// A named table: schema plus rows.
class Table {
 public:
  /// Validates the specs (non-empty unique names, at most one PK, PK/FK are
  /// int64) and constructs an empty table.
  static StatusOr<Table> Create(std::string name,
                                std::vector<ColumnSpec> columns);

  const std::string& name() const { return name_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }
  int64_t num_rows() const { return static_cast<int64_t>(rows_.size()); }
  const ColumnSpec& column(int index) const;

  /// Index of the column called `name`, or NotFound.
  StatusOr<int> ColumnIndex(const std::string& name) const;

  /// Index of the primary-key column, or -1 when the table has none.
  int primary_key_column() const { return pk_column_; }

  /// A table with this one's name and columns and no rows (empty
  /// dictionaries): the staging table for rows bound for this one.
  Table EmptyCopy() const { return Table(name_, columns_); }

  /// Appends a row. `values` must match the schema arity and types
  /// (NULL allowed anywhere except the primary key; INT64_MIN, the raw NULL
  /// cell, is refused in int64 columns). Duplicate primary keys are
  /// rejected. Returns the new row index.
  StatusOr<int64_t> AppendRow(const std::vector<Value>& values);

  /// Raw cell payload (int64 value, dictionary id, or kNullCell).
  int64_t raw(int64_t row, int col) const;

  bool IsNull(int64_t row, int col) const { return raw(row, col) == kNullCell; }

  /// Typed accessors. Require the matching column type and non-NULL cell.
  int64_t GetInt(int64_t row, int col) const;
  const std::string& GetString(int64_t row, int col) const;

  /// Typed read with NULL propagation.
  Value GetValue(int64_t row, int col) const;

  /// Every cell of `row` as GetValue() reads it: the AppendRow() input
  /// that reproduces the row.
  std::vector<Value> RowValues(int64_t row) const;

  /// Row index of the row whose primary key equals `pk`, or NotFound.
  /// Requires the table to have a primary key.
  StatusOr<int64_t> RowForPrimaryKey(int64_t pk) const;

  /// Per-column dictionary (only for string columns).
  const Dictionary& dictionary(int col) const;

  /// Interns `text` into `col`'s dictionary without adding a row; useful for
  /// lookups before insertion. Requires a string column.
  int64_t InternString(int col, std::string_view text);

  /// Dictionary id of `text` in `col`, or std::nullopt.
  std::optional<int64_t> FindString(int col, std::string_view text) const;

  /// "name(col:type, ...), N rows".
  std::string DebugString() const;

 private:
  Table(std::string name, std::vector<ColumnSpec> columns);

  std::string name_;
  std::vector<ColumnSpec> columns_;
  std::vector<std::vector<int64_t>> rows_;
  std::vector<Dictionary> dictionaries_;  // one per column; unused for ints
  int pk_column_ = -1;
  std::unordered_map<int64_t, int64_t> pk_index_;  // pk value -> row
};

}  // namespace distinct

#endif  // DISTINCT_RELATIONAL_TABLE_H_
