#include "relational/csv.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace distinct {
namespace {

Table MakeTable() {
  auto table = Table::Create(
      "People", {ColumnSpec{"id", ColumnType::kInt64, true, ""},
                 ColumnSpec{"name", ColumnType::kString, false, ""},
                 ColumnSpec{"age", ColumnType::kInt64, false, ""}});
  return *std::move(table);
}

TEST(ParseCsvTest, SimpleRecords) {
  auto records = ParseCsv("a,b\n1,2\n");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0][0].value, "a");
  EXPECT_EQ((*records)[1][1].value, "2");
  EXPECT_FALSE((*records)[0][0].quoted);
}

TEST(ParseCsvTest, QuotedFieldsWithSeparatorsAndNewlines) {
  auto records = ParseCsv("\"a,b\",\"line1\nline2\",\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0][0].value, "a,b");
  EXPECT_EQ((*records)[0][1].value, "line1\nline2");
  EXPECT_EQ((*records)[0][2].value, "he said \"hi\"");
  EXPECT_TRUE((*records)[0][0].quoted);
}

TEST(ParseCsvTest, EmptyVersusQuotedEmpty) {
  auto records = ParseCsv("x,,\"\"\n");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ((*records)[0].size(), 3u);
  EXPECT_EQ((*records)[0][1].value, "");
  EXPECT_FALSE((*records)[0][1].quoted);  // NULL
  EXPECT_EQ((*records)[0][2].value, "");
  EXPECT_TRUE((*records)[0][2].quoted);  // empty string
}

TEST(ParseCsvTest, CrLfLineEndings) {
  auto records = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[1][0].value, "1");
}

TEST(ParseCsvTest, CrLfKeepsTrailingField) {
  // The field before the CRLF terminator must survive intact — including
  // when it is the record's last, empty (NULL), or quoted-empty field.
  auto records = ParseCsv("a,b,c\r\nx,,\"\"\r\n");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  ASSERT_EQ((*records)[1].size(), 3u);
  EXPECT_EQ((*records)[1][0].value, "x");
  EXPECT_EQ((*records)[1][1].value, "");
  EXPECT_FALSE((*records)[1][1].quoted);  // NULL
  EXPECT_TRUE((*records)[1][2].quoted);   // empty string
}

TEST(ParseCsvTest, LoneCarriageReturnIsData) {
  // A '\r' not followed by '\n' (and not at end of input) is field data,
  // not a record terminator; the old parser silently dropped it.
  auto records = ParseCsv("a\rb,c\n");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0][0].value, "a\rb");
  EXPECT_EQ((*records)[0][1].value, "c");
}

TEST(ParseCsvTest, CarriageReturnAtEndOfInputEndsTheRecord) {
  auto records = ParseCsv("a,b\r");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  ASSERT_EQ((*records)[0].size(), 2u);
  EXPECT_EQ((*records)[0][1].value, "b");
}

TEST(ParseCsvTest, QuotedFieldBeforeCrLf) {
  auto records = ParseCsv("\"x,y\"\r\n\"z\"\r\n");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0][0].value, "x,y");
  EXPECT_EQ((*records)[1][0].value, "z");
}

TEST(ParseCsvTest, QuotedFieldKeepsEmbeddedCrLf) {
  auto records = ParseCsv("\"line1\r\nline2\",\"tail\rcr\"\r\n");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0][0].value, "line1\r\nline2");
  EXPECT_EQ((*records)[0][1].value, "tail\rcr");
}

TEST(ParseCsvTest, MissingTrailingNewline) {
  auto records = ParseCsv("a,b\n1,2");
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
}

TEST(ParseCsvTest, EmptyInput) {
  auto records = ParseCsv("");
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST(ParseCsvTest, CustomSeparator) {
  CsvOptions options;
  options.separator = ';';
  auto records = ParseCsv("a;b\n", options);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ((*records)[0].size(), 2u);
}

TEST(ParseCsvTest, Malformed) {
  EXPECT_FALSE(ParseCsv("\"unterminated\n").ok());
  EXPECT_FALSE(ParseCsv("ab\"cd\n").ok());
  EXPECT_FALSE(ParseCsv("\"x\"y\n").ok());
}

TEST(CsvRoundTripTest, TableSurvives) {
  Table table = MakeTable();
  ASSERT_TRUE(
      table.AppendRow({Value::Int(1), Value::Str("Wei Wang"), Value::Int(30)})
          .ok());
  ASSERT_TRUE(table
                  .AppendRow({Value::Int(2), Value::Str("comma, quote\""),
                              Value::Null()})
                  .ok());
  ASSERT_TRUE(
      table.AppendRow({Value::Int(3), Value::Str(""), Value::Int(0)}).ok());

  const std::string csv = TableToCsv(table);
  Table copy = MakeTable();
  auto appended = AppendCsvToTable(csv, copy);
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(*appended, 3);

  ASSERT_EQ(copy.num_rows(), 3);
  EXPECT_EQ(copy.GetString(0, 1), "Wei Wang");
  EXPECT_EQ(copy.GetString(1, 1), "comma, quote\"");
  EXPECT_TRUE(copy.IsNull(1, 2));
  EXPECT_EQ(copy.GetString(2, 1), "");
  EXPECT_FALSE(copy.IsNull(2, 1));
  EXPECT_EQ(copy.GetInt(2, 2), 0);
}

TEST(CsvRoundTripTest, CrlfFixtureSurvives) {
  // A table written with Unix newlines must import identically after the
  // file was rewritten with CRLF line endings (values containing CR/LF
  // are quoted by TableToCsv, so only record terminators are rewritten).
  Table table = MakeTable();
  ASSERT_TRUE(table
                  .AppendRow({Value::Int(1), Value::Str("line1\nline2"),
                              Value::Int(30)})
                  .ok());
  ASSERT_TRUE(table
                  .AppendRow({Value::Int(2), Value::Str("cr\rinside"),
                              Value::Null()})
                  .ok());
  ASSERT_TRUE(
      table.AppendRow({Value::Int(3), Value::Str("plain"), Value::Int(7)})
          .ok());

  std::string csv = TableToCsv(table);
  // Rewrite bare record terminators as CRLF (quoted newlines untouched:
  // walk the quoting state like a CRLF-producing writer would).
  std::string crlf;
  bool in_quotes = false;
  for (const char c : csv) {
    if (c == '"') {
      in_quotes = !in_quotes;
    }
    if (c == '\n' && !in_quotes) {
      crlf += '\r';
    }
    crlf += c;
  }

  Table copy = MakeTable();
  auto appended = AppendCsvToTable(crlf, copy);
  ASSERT_TRUE(appended.ok());
  ASSERT_EQ(*appended, 3);
  EXPECT_EQ(copy.GetString(0, 1), "line1\nline2");
  EXPECT_EQ(copy.GetString(1, 1), "cr\rinside");
  EXPECT_TRUE(copy.IsNull(1, 2));
  EXPECT_EQ(copy.GetString(2, 1), "plain");
  EXPECT_EQ(copy.GetInt(2, 2), 7);
}

TEST(CsvImportTest, HeaderValidation) {
  Table table = MakeTable();
  EXPECT_FALSE(AppendCsvToTable("", table).ok());
  EXPECT_FALSE(AppendCsvToTable("id,name\n", table).ok());
  EXPECT_FALSE(AppendCsvToTable("id,wrong,age\n", table).ok());
  EXPECT_TRUE(AppendCsvToTable("id,name,age\n", table).ok());
  EXPECT_EQ(table.num_rows(), 0);
}

TEST(CsvImportTest, TypeErrors) {
  Table table = MakeTable();
  EXPECT_FALSE(
      AppendCsvToTable("id,name,age\nnot_a_number,x,1\n", table).ok());
  EXPECT_FALSE(AppendCsvToTable("id,name,age\n1,x\n", table).ok());
}

TEST(CsvImportTest, NullPrimaryKeyRejected) {
  Table table = MakeTable();
  EXPECT_FALSE(AppendCsvToTable("id,name,age\n,x,1\n", table).ok());
}

TEST(CsvFileTest, SaveAndLoad) {
  Table table = MakeTable();
  ASSERT_TRUE(
      table.AppendRow({Value::Int(7), Value::Str("a"), Value::Int(1)}).ok());
  const std::string path = ::testing::TempDir() + "/csv_test.csv";
  ASSERT_TRUE(SaveTableCsv(table, path).ok());
  Table copy = MakeTable();
  auto loaded = LoadTableCsv(path, copy);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 1);
  EXPECT_EQ(copy.GetInt(0, 0), 7);
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFile) {
  Table table = MakeTable();
  EXPECT_EQ(LoadTableCsv("/no/such.csv", table).status().code(),
            StatusCode::kNotFound);
}

// A read that fails is reported as the read error, not parsed as an empty
// file without a header line.
TEST(CsvFileTest, ReadErrorIsNotAnEmptyFile) {
  Table table = MakeTable();
  const auto loaded = LoadTableCsv(::testing::TempDir(), table);
  ASSERT_FALSE(loaded.ok());
  const std::string message = loaded.status().message();
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << message;
  EXPECT_NE(message.find("read of"), std::string::npos) << message;
  EXPECT_EQ(message.find("missing header line"), std::string::npos)
      << message;
  EXPECT_EQ(table.num_rows(), 0);
}

TEST(CsvDatabaseTest, WholeDatabaseRoundTrip) {
  Database db;
  auto people = Table::Create(
      "people", {ColumnSpec{"id", ColumnType::kInt64, true, ""},
                 ColumnSpec{"name", ColumnType::kString, false, ""}});
  ASSERT_TRUE(people->AppendRow({Value::Int(0), Value::Str("a")}).ok());
  ASSERT_TRUE(db.AddTable(*std::move(people)).ok());
  auto pets = Table::Create(
      "pets", {ColumnSpec{"id", ColumnType::kInt64, true, ""},
               ColumnSpec{"owner", ColumnType::kInt64, false, "people"}});
  ASSERT_TRUE(pets->AppendRow({Value::Int(0), Value::Int(0)}).ok());
  ASSERT_TRUE(pets->AppendRow({Value::Int(1), Value::Null()}).ok());
  ASSERT_TRUE(db.AddTable(*std::move(pets)).ok());

  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(SaveDatabaseCsv(db, dir).ok());

  Database copy;
  auto people2 = Table::Create(
      "people", {ColumnSpec{"id", ColumnType::kInt64, true, ""},
                 ColumnSpec{"name", ColumnType::kString, false, ""}});
  ASSERT_TRUE(copy.AddTable(*std::move(people2)).ok());
  auto pets2 = Table::Create(
      "pets", {ColumnSpec{"id", ColumnType::kInt64, true, ""},
               ColumnSpec{"owner", ColumnType::kInt64, false, "people"}});
  ASSERT_TRUE(copy.AddTable(*std::move(pets2)).ok());

  ASSERT_TRUE(LoadDatabaseCsv(copy, dir).ok());
  EXPECT_EQ(copy.table(0).num_rows(), 1);
  EXPECT_EQ(copy.table(1).num_rows(), 2);
  EXPECT_TRUE(copy.table(1).IsNull(1, 1));
  EXPECT_TRUE(copy.ValidateIntegrity().ok());
  std::remove((dir + "/people.csv").c_str());
  std::remove((dir + "/pets.csv").c_str());
}

TEST(CsvDatabaseTest, MissingTableFileFails) {
  Database db;
  auto lonely = Table::Create(
      "no_such_csv_file", {ColumnSpec{"id", ColumnType::kInt64, true, ""}});
  ASSERT_TRUE(db.AddTable(*std::move(lonely)).ok());
  EXPECT_FALSE(LoadDatabaseCsv(db, ::testing::TempDir()).ok());
}

}  // namespace
}  // namespace distinct
