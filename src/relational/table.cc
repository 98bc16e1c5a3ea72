#include "relational/table.h"

#include <unordered_set>

#include "common/string_util.h"

namespace distinct {

namespace {

/// Whether the row with a probed id holds primary key `pk`.
auto KeyIs(const std::vector<int64_t>& keys, int64_t pk) {
  return [&keys, pk](int64_t row) {
    return keys[static_cast<size_t>(row)] == pk;
  };
}

}  // namespace

Table::Table(std::string name, std::vector<ColumnSpec> columns)
    : name_(std::move(name)),
      columns_(std::move(columns)),
      cells_(columns_.size()),
      dictionaries_(columns_.size()) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].is_primary_key) {
      pk_column_ = static_cast<int>(i);
    }
  }
}

StatusOr<Table> Table::Create(std::string name,
                              std::vector<ColumnSpec> columns) {
  if (name.empty()) {
    return InvalidArgumentError("table name must not be empty");
  }
  if (columns.empty()) {
    return InvalidArgumentError("table '" + name + "' has no columns");
  }
  std::unordered_set<std::string> seen;
  int pk_count = 0;
  for (const ColumnSpec& spec : columns) {
    if (spec.name.empty()) {
      return InvalidArgumentError("table '" + name + "': empty column name");
    }
    if (!seen.insert(spec.name).second) {
      return InvalidArgumentError("table '" + name + "': duplicate column '" +
                                  spec.name + "'");
    }
    if (spec.is_primary_key) {
      ++pk_count;
      if (spec.type != ColumnType::kInt64) {
        return InvalidArgumentError("table '" + name + "': primary key '" +
                                    spec.name + "' must be int64");
      }
    }
    if (!spec.fk_table.empty() && spec.type != ColumnType::kInt64) {
      return InvalidArgumentError("table '" + name + "': foreign key '" +
                                  spec.name + "' must be int64");
    }
  }
  if (pk_count > 1) {
    return InvalidArgumentError("table '" + name +
                                "' declares more than one primary key");
  }
  return Table(std::move(name), std::move(columns));
}

const ColumnSpec& Table::column(int index) const {
  DISTINCT_CHECK(index >= 0 && index < num_columns());
  return columns_[static_cast<size_t>(index)];
}

StatusOr<int> Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return NotFoundError("table '" + name_ + "' has no column '" + name + "'");
}

StatusOr<int64_t> Table::AppendRow(const std::vector<Value>& values) {
  if (static_cast<int>(values.size()) != num_columns()) {
    return InvalidArgumentError(StrFormat(
        "table '%s': row arity %zu != schema arity %d", name_.c_str(),
        values.size(), num_columns()));
  }
  // Each cell goes straight onto its column; a rejected row takes its
  // cells back off.
  const int64_t row = num_rows();
  const auto reject = [&](Status status) {
    for (std::vector<int64_t>& column : cells_) {
      column.resize(static_cast<size_t>(row));
    }
    return status;
  };
  for (size_t i = 0; i < values.size(); ++i) {
    const ColumnSpec& spec = columns_[i];
    const Value& value = values[i];
    if (value.is_null()) {
      if (spec.is_primary_key) {
        return reject(
            InvalidArgumentError("table '" + name_ + "': NULL primary key"));
      }
      cells_[i].push_back(kNullCell);
      continue;
    }
    if (value.type() != spec.type) {
      return reject(InvalidArgumentError(StrFormat(
          "table '%s' column '%s': expected %s, got %s", name_.c_str(),
          spec.name.c_str(), ColumnTypeToString(spec.type),
          ColumnTypeToString(value.type()))));
    }
    if (spec.type == ColumnType::kInt64) {
      if (value.AsInt() == kNullCell) {
        return reject(InvalidArgumentError(
            "table '" + name_ + "': INT64_MIN is reserved for NULL"));
      }
      cells_[i].push_back(value.AsInt());
    } else {
      cells_[i].push_back(dictionaries_[i].Intern(value.AsString()));
    }
  }

  if (pk_column_ >= 0) {
    DISTINCT_DCHECK(pk_index_.size() == row);
    const std::vector<int64_t>& keys = cells_[static_cast<size_t>(pk_column_)];
    const int64_t pk = keys.back();
    const int64_t holder = pk_index_.FindOrInsert(
        static_cast<uint64_t>(pk), KeyIs(keys, pk), [&keys](int64_t old) {
          return static_cast<uint64_t>(keys[static_cast<size_t>(old)]);
        });
    if (holder != row) {
      return reject(AlreadyExistsError(
          StrFormat("table '%s': duplicate primary key %lld", name_.c_str(),
                    static_cast<long long>(pk))));
    }
  }
  return row;
}

int64_t Table::raw(int64_t row, int col) const {
  DISTINCT_DCHECK(row >= 0 && row < num_rows());
  DISTINCT_DCHECK(col >= 0 && col < num_columns());
  return cells_[static_cast<size_t>(col)][static_cast<size_t>(row)];
}

int64_t Table::GetInt(int64_t row, int col) const {
  DISTINCT_DCHECK(column(col).type == ColumnType::kInt64);
  const int64_t cell = raw(row, col);
  DISTINCT_CHECK(cell != kNullCell);
  return cell;
}

const std::string& Table::GetString(int64_t row, int col) const {
  DISTINCT_DCHECK(column(col).type == ColumnType::kString);
  const int64_t cell = raw(row, col);
  DISTINCT_CHECK(cell != kNullCell);
  return dictionaries_[static_cast<size_t>(col)].Lookup(cell);
}

Value Table::GetValue(int64_t row, int col) const {
  const int64_t cell = raw(row, col);
  if (cell == kNullCell) {
    return Value::Null();
  }
  if (column(col).type == ColumnType::kInt64) {
    return Value::Int(cell);
  }
  return Value::Str(dictionaries_[static_cast<size_t>(col)].Lookup(cell));
}

std::vector<Value> Table::RowValues(int64_t row) const {
  std::vector<Value> values;
  values.reserve(columns_.size());
  for (int c = 0; c < num_columns(); ++c) {
    values.push_back(GetValue(row, c));
  }
  return values;
}

StatusOr<int64_t> Table::RowForPrimaryKey(int64_t pk) const {
  if (pk_column_ < 0) {
    return FailedPreconditionError("table '" + name_ +
                                   "' has no primary key");
  }
  const int64_t row = pk_index_.Find(
      static_cast<uint64_t>(pk),
      KeyIs(cells_[static_cast<size_t>(pk_column_)], pk));
  if (row < 0) {
    return NotFoundError(StrFormat("table '%s': no row with pk %lld",
                                   name_.c_str(),
                                   static_cast<long long>(pk)));
  }
  return row;
}

const Dictionary& Table::dictionary(int col) const {
  DISTINCT_CHECK(col >= 0 && col < num_columns());
  DISTINCT_CHECK(columns_[static_cast<size_t>(col)].type ==
                 ColumnType::kString);
  return dictionaries_[static_cast<size_t>(col)];
}

int64_t Table::InternString(int col, std::string_view text) {
  DISTINCT_CHECK(col >= 0 && col < num_columns());
  DISTINCT_CHECK(columns_[static_cast<size_t>(col)].type ==
                 ColumnType::kString);
  return dictionaries_[static_cast<size_t>(col)].Intern(text);
}

std::optional<int64_t> Table::FindString(int col, std::string_view text) const {
  DISTINCT_CHECK(col >= 0 && col < num_columns());
  DISTINCT_CHECK(columns_[static_cast<size_t>(col)].type ==
                 ColumnType::kString);
  return dictionaries_[static_cast<size_t>(col)].Find(text);
}

std::string Table::DebugString() const {
  std::string out = name_ + "(";
  for (int i = 0; i < num_columns(); ++i) {
    if (i > 0) out += ", ";
    const ColumnSpec& spec = columns_[static_cast<size_t>(i)];
    out += spec.name;
    out += ':';
    out += ColumnTypeToString(spec.type);
    if (spec.is_primary_key) out += " PK";
    if (!spec.fk_table.empty()) out += " -> " + spec.fk_table;
  }
  out += StrFormat("), %lld rows", static_cast<long long>(num_rows()));
  return out;
}

}  // namespace distinct
