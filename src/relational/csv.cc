#include "relational/csv.h"

#include "relational/database.h"

#include "common/io_util.h"
#include "common/string_util.h"

namespace distinct {
namespace {

bool NeedsQuoting(const std::string& field, char separator) {
  if (field.empty()) {
    return false;  // NULL encoding; empty strings are quoted explicitly
  }
  return field.find(separator) != std::string::npos ||
         field.find('"') != std::string::npos ||
         field.find('\n') != std::string::npos ||
         field.find('\r') != std::string::npos;
}

void AppendField(std::string& out, const std::string& field, bool quote) {
  if (!quote) {
    out += field;
    return;
  }
  out += '"';
  for (const char c : field) {
    if (c == '"') {
      out += '"';
    }
    out += c;
  }
  out += '"';
}

}  // namespace

StatusOr<std::vector<std::vector<CsvField>>> ParseCsv(
    const std::string& text, const CsvOptions& options) {
  std::vector<std::vector<CsvField>> records;
  std::vector<CsvField> record;
  CsvField field;
  enum class State { kStartOfField, kUnquoted, kQuoted, kAfterQuote };
  State state = State::kStartOfField;

  auto end_field = [&] {
    record.push_back(std::move(field));
    field = CsvField{};
    state = State::kStartOfField;
  };
  auto end_record = [&] {
    end_field();
    records.push_back(std::move(record));
    record.clear();
  };

  // '\r' terminates a record only as part of CRLF or at end of input;
  // anywhere else it is field data (RFC 4180 keeps it literal). The old
  // swallow-every-CR rule silently dropped lone CRs from unquoted fields,
  // which broke round-trips of values containing them.
  auto crlf_at = [&](size_t i) {
    return i + 1 == text.size() || text[i + 1] == '\n';
  };

  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    switch (state) {
      case State::kStartOfField:
        if (c == '"') {
          field.quoted = true;
          state = State::kQuoted;
        } else if (c == options.separator) {
          end_field();
        } else if (c == '\n') {
          end_record();
        } else if (c == '\r' && crlf_at(i)) {
          end_record();
          ++i;  // consume the '\n' of the CRLF pair
        } else {
          field.value += c;
          state = State::kUnquoted;
        }
        break;
      case State::kUnquoted:
        if (c == options.separator) {
          end_field();
        } else if (c == '\n') {
          end_record();
        } else if (c == '\r' && crlf_at(i)) {
          end_record();
          ++i;
        } else if (c == '"') {
          return DataLossError(StrFormat(
              "CSV parse error at byte %zu: quote inside unquoted field",
              i));
        } else {
          field.value += c;
        }
        break;
      case State::kQuoted:
        if (c == '"') {
          state = State::kAfterQuote;
        } else {
          field.value += c;  // embedded separators, \n, \r all literal
        }
        break;
      case State::kAfterQuote:
        if (c == '"') {
          field.value += '"';  // escaped quote
          state = State::kQuoted;
        } else if (c == options.separator) {
          end_field();
        } else if (c == '\n') {
          end_record();
        } else if (c == '\r' && crlf_at(i)) {
          end_record();
          ++i;
        } else {
          return DataLossError(StrFormat(
              "CSV parse error at byte %zu: content after closing quote",
              i));
        }
        break;
    }
  }
  if (state == State::kQuoted) {
    return DataLossError("CSV parse error: unterminated quoted field");
  }
  // Flush a final record without trailing newline.
  if (state != State::kStartOfField || !record.empty() ||
      field.quoted) {
    end_record();
  }
  return records;
}

std::string TableToCsv(const Table& table, const CsvOptions& options) {
  std::string out;
  for (int c = 0; c < table.num_columns(); ++c) {
    if (c > 0) {
      out += options.separator;
    }
    const std::string& name = table.column(c).name;
    AppendField(out, name, NeedsQuoting(name, options.separator));
  }
  out += '\n';

  for (int64_t row = 0; row < table.num_rows(); ++row) {
    for (int c = 0; c < table.num_columns(); ++c) {
      if (c > 0) {
        out += options.separator;
      }
      if (table.IsNull(row, c)) {
        continue;  // NULL: empty unquoted field
      }
      if (table.column(c).type == ColumnType::kInt64) {
        out += StrFormat("%lld",
                         static_cast<long long>(table.GetInt(row, c)));
      } else {
        const std::string& value = table.GetString(row, c);
        AppendField(out, value,
                    value.empty() || NeedsQuoting(value, options.separator));
      }
    }
    out += '\n';
  }
  return out;
}

StatusOr<int64_t> AppendCsvToTable(const std::string& text, Table& table,
                                   const CsvOptions& options) {
  auto records = ParseCsv(text, options);
  DISTINCT_RETURN_IF_ERROR(records.status());
  if (records->empty()) {
    return DataLossError("CSV: missing header line");
  }
  const std::vector<CsvField>& header = records->front();
  if (static_cast<int>(header.size()) != table.num_columns()) {
    return InvalidArgumentError(StrFormat(
        "CSV header has %zu columns; table '%s' has %d", header.size(),
        table.name().c_str(), table.num_columns()));
  }
  for (int c = 0; c < table.num_columns(); ++c) {
    if (header[static_cast<size_t>(c)].value != table.column(c).name) {
      return InvalidArgumentError(
          "CSV header column '" + header[static_cast<size_t>(c)].value +
          "' does not match table column '" + table.column(c).name + "'");
    }
  }

  int64_t appended = 0;
  for (size_t r = 1; r < records->size(); ++r) {
    const std::vector<CsvField>& fields = (*records)[r];
    if (static_cast<int>(fields.size()) != table.num_columns()) {
      return InvalidArgumentError(StrFormat(
          "CSV record %zu has %zu fields, expected %d", r, fields.size(),
          table.num_columns()));
    }
    std::vector<Value> row;
    row.reserve(fields.size());
    for (int c = 0; c < table.num_columns(); ++c) {
      const CsvField& f = fields[static_cast<size_t>(c)];
      if (f.value.empty() && !f.quoted) {
        row.push_back(Value::Null());
        continue;
      }
      if (table.column(c).type == ColumnType::kInt64) {
        auto parsed = ParseInt64(f.value);
        if (!parsed.has_value()) {
          return InvalidArgumentError(StrFormat(
              "CSV record %zu column '%s': '%s' is not an integer", r,
              table.column(c).name.c_str(), f.value.c_str()));
        }
        row.push_back(Value::Int(*parsed));
      } else {
        row.push_back(Value::Str(f.value));
      }
    }
    DISTINCT_RETURN_IF_ERROR(table.AppendRow(row).status());
    ++appended;
  }
  return appended;
}

Status SaveDatabaseCsv(const Database& db, const std::string& directory,
                       const CsvOptions& options) {
  for (int t = 0; t < db.num_tables(); ++t) {
    const Table& table = db.table(t);
    DISTINCT_RETURN_IF_ERROR(
        SaveTableCsv(table, directory + "/" + table.name() + ".csv",
                     options));
  }
  return Status::Ok();
}

Status LoadDatabaseCsv(Database& db, const std::string& directory,
                       const CsvOptions& options) {
  for (int t = 0; t < db.num_tables(); ++t) {
    Table& table = db.mutable_table(t);
    DISTINCT_RETURN_IF_ERROR(
        LoadTableCsv(directory + "/" + table.name() + ".csv", table,
                     options)
            .status());
  }
  return Status::Ok();
}

Status SaveTableCsv(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  return WriteStringToFile(path, TableToCsv(table, options), "CSV");
}

StatusOr<int64_t> LoadTableCsv(const std::string& path, Table& table,
                               const CsvOptions& options) {
  auto text = ReadFileToString(path, "CSV");
  DISTINCT_RETURN_IF_ERROR(text.status());
  return AppendCsvToTable(*text, table, options);
}

}  // namespace distinct
