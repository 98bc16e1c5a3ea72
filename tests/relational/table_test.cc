#include "relational/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_index.h"
#include "common/rng.h"

namespace distinct {
namespace {

Table MakeAuthors() {
  auto table = Table::Create(
      "Authors", {ColumnSpec{"id", ColumnType::kInt64, true, ""},
                  ColumnSpec{"name", ColumnType::kString, false, ""}});
  return *std::move(table);
}

TEST(TableCreateTest, RejectsBadSchemas) {
  EXPECT_FALSE(Table::Create("", {ColumnSpec{"a", ColumnType::kInt64, false, ""}}).ok());
  EXPECT_FALSE(Table::Create("t", {}).ok());
  EXPECT_FALSE(
      Table::Create("t", {ColumnSpec{"a", ColumnType::kInt64, false, ""},
                          ColumnSpec{"a", ColumnType::kInt64, false, ""}}).ok());
  EXPECT_FALSE(Table::Create("t", {ColumnSpec{"", ColumnType::kInt64, false, ""}}).ok());
  // Two primary keys.
  EXPECT_FALSE(Table::Create("t", {ColumnSpec{"a", ColumnType::kInt64, true,
                                              ""},
                                   ColumnSpec{"b", ColumnType::kInt64, true,
                                              ""}})
                   .ok());
  // String primary key.
  EXPECT_FALSE(
      Table::Create("t", {ColumnSpec{"a", ColumnType::kString, true, ""}})
          .ok());
  // String foreign key.
  EXPECT_FALSE(
      Table::Create("t", {ColumnSpec{"a", ColumnType::kString, false, "x"}})
          .ok());
}

TEST(TableTest, AppendAndReadBack) {
  Table table = MakeAuthors();
  ASSERT_TRUE(table.AppendRow({Value::Int(7), Value::Str("Wei Wang")}).ok());
  EXPECT_EQ(table.num_rows(), 1);
  EXPECT_EQ(table.GetInt(0, 0), 7);
  EXPECT_EQ(table.GetString(0, 1), "Wei Wang");
}

TEST(TableTest, ArityMismatchRejected) {
  Table table = MakeAuthors();
  EXPECT_FALSE(table.AppendRow({Value::Int(1)}).ok());
  EXPECT_FALSE(
      table.AppendRow({Value::Int(1), Value::Str("a"), Value::Str("b")})
          .ok());
  EXPECT_EQ(table.num_rows(), 0);
}

TEST(TableTest, TypeMismatchRejected) {
  Table table = MakeAuthors();
  EXPECT_FALSE(table.AppendRow({Value::Str("x"), Value::Str("a")}).ok());
  EXPECT_FALSE(table.AppendRow({Value::Int(1), Value::Int(2)}).ok());
}

TEST(TableTest, DuplicatePrimaryKeyRejected) {
  Table table = MakeAuthors();
  ASSERT_TRUE(table.AppendRow({Value::Int(1), Value::Str("a")}).ok());
  const auto duplicate = table.AppendRow({Value::Int(1), Value::Str("b")});
  EXPECT_EQ(duplicate.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(table.num_rows(), 1);
}

TEST(TableTest, NullPrimaryKeyRejected) {
  Table table = MakeAuthors();
  EXPECT_FALSE(table.AppendRow({Value::Null(), Value::Str("a")}).ok());
}

TEST(TableTest, NullCellsRoundTrip) {
  Table table = MakeAuthors();
  ASSERT_TRUE(table.AppendRow({Value::Int(1), Value::Null()}).ok());
  EXPECT_TRUE(table.IsNull(0, 1));
  EXPECT_TRUE(table.GetValue(0, 1).is_null());
  EXPECT_FALSE(table.IsNull(0, 0));
}

TEST(TableTest, PrimaryKeyLookup) {
  Table table = MakeAuthors();
  ASSERT_TRUE(table.AppendRow({Value::Int(10), Value::Str("a")}).ok());
  ASSERT_TRUE(table.AppendRow({Value::Int(20), Value::Str("b")}).ok());
  EXPECT_EQ(*table.RowForPrimaryKey(20), 1);
  EXPECT_EQ(*table.RowForPrimaryKey(10), 0);
  EXPECT_EQ(table.RowForPrimaryKey(99).status().code(),
            StatusCode::kNotFound);
}

TEST(TableTest, NoPrimaryKeyLookupFails) {
  auto table = Table::Create("t", {ColumnSpec{"v", ColumnType::kInt64, false, ""}});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->RowForPrimaryKey(0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(table->primary_key_column(), -1);
}

TEST(TableTest, ColumnIndex) {
  Table table = MakeAuthors();
  EXPECT_EQ(*table.ColumnIndex("name"), 1);
  EXPECT_EQ(*table.ColumnIndex("id"), 0);
  EXPECT_EQ(table.ColumnIndex("missing").status().code(),
            StatusCode::kNotFound);
}

TEST(TableTest, StringDictionaryIsShared) {
  Table table = MakeAuthors();
  ASSERT_TRUE(table.AppendRow({Value::Int(1), Value::Str("same")}).ok());
  ASSERT_TRUE(table.AppendRow({Value::Int(2), Value::Str("same")}).ok());
  EXPECT_EQ(table.raw(0, 1), table.raw(1, 1));
  EXPECT_EQ(table.dictionary(1).size(), 1);
}

TEST(TableTest, FindAndInternString) {
  Table table = MakeAuthors();
  EXPECT_FALSE(table.FindString(1, "ghost").has_value());
  const int64_t id = table.InternString(1, "ghost");
  EXPECT_EQ(table.FindString(1, "ghost"), id);
  EXPECT_EQ(table.num_rows(), 0);  // interning adds no rows
}

TEST(TableTest, ReservedNullSentinelRejected) {
  Table table = MakeAuthors();
  EXPECT_FALSE(
      table.AppendRow({Value::Int(kNullCell), Value::Str("a")}).ok());
}

TEST(TableTest, DebugStringMentionsSchema) {
  Table table = MakeAuthors();
  const std::string debug = table.DebugString();
  EXPECT_NE(debug.find("Authors"), std::string::npos);
  EXPECT_NE(debug.find("PK"), std::string::npos);
  EXPECT_NE(debug.find("0 rows"), std::string::npos);
}

/// Key families the primary-key index must spread: scrambled, negative,
/// and strided so that only high bits differ. Each family is distinct.
std::vector<std::pair<std::string, std::function<int64_t(int64_t)>>>
KeyFamilies() {
  return {
      {"scrambled",
       [](int64_t i) {
         uint64_t state = static_cast<uint64_t>(i);
         return static_cast<int64_t>(SplitMix64Next(state) >> 1);
       }},
      {"negative", [](int64_t i) { return -1 - i * 7; }},
      {"stride 2^32", [](int64_t i) { return i << 32; }},
      {"stride 2^20", [](int64_t i) { return i << 20; }},
      {"edges",
       [](int64_t i) {
         return i == 0 ? INT64_MAX : i == 1 ? INT64_MIN + 1 : i - 1;
       }},
  };
}

/// Every key of `keys` finds its row, and the row holds the key.
void ExpectEveryKeyFound(const Table& table, const std::vector<int64_t>& keys,
                         const std::string& context) {
  ASSERT_EQ(table.num_rows(), static_cast<int64_t>(keys.size())) << context;
  for (size_t row = 0; row < keys.size(); ++row) {
    auto found = table.RowForPrimaryKey(keys[row]);
    ASSERT_TRUE(found.ok()) << context << " key " << keys[row];
    ASSERT_EQ(*found, static_cast<int64_t>(row)) << context;
    ASSERT_EQ(table.GetInt(static_cast<int64_t>(row), 0), keys[row]);
  }
}

TEST(TableKeyIndexTest, EveryKeyFamilySurvivesEachGrowth) {
  constexpr int64_t kRows = 100000;
  for (const auto& [family, key_of] : KeyFamilies()) {
    Table table = MakeAuthors();
    std::vector<int64_t> keys;
    for (int64_t i = 0; i < kRows; ++i) {
      keys.push_back(key_of(i));
      ASSERT_EQ(*table.AppendRow({Value::Int(keys.back()), Value::Null()}), i)
          << family;
      // The index doubles as it passes each power of two: check every key
      // just after.
      if (i > 8 && (i & (i - 1)) == 0) {
        ExpectEveryKeyFound(table, keys, family);
      }
    }
    ExpectEveryKeyFound(table, keys, family);
  }
}

// The slot hash folds high bits into the low ones the mask keeps: keys
// that differ only above bit 20, 32 or 40 probe about as far as scrambled
// ones, where their raw low bits would all land on one slot.
TEST(TableKeyIndexTest, StridedKeysDoNotCluster) {
  constexpr int64_t kKeys = 100000;
  for (const int shift : {20, 32, 40}) {
    std::vector<int64_t> keys;
    FlatIndex index;
    int64_t compared = 0;
    const auto key_is = [&](int64_t pk) {
      return [&keys, &compared, pk](int64_t row) {
        ++compared;
        return keys[static_cast<size_t>(row)] == pk;
      };
    };
    const auto hash_of = [&keys](int64_t row) {
      return static_cast<uint64_t>(keys[static_cast<size_t>(row)]);
    };
    for (int64_t i = 0; i < kKeys; ++i) {
      const int64_t pk = i << shift;
      ASSERT_EQ(
          index.FindOrInsert(static_cast<uint64_t>(pk), key_is(pk), hash_of),
          i);
      keys.push_back(pk);
    }
    compared = 0;
    for (int64_t i = 0; i < kKeys; ++i) {
      const int64_t pk = keys[static_cast<size_t>(i)];
      ASSERT_EQ(index.Find(static_cast<uint64_t>(pk), key_is(pk)), i);
    }
    // Linear probing at most half full averages under 1.5 comparisons per
    // hit; one cluster would average kKeys / 2.
    EXPECT_LT(compared, 3 * kKeys) << "keys i << " << shift;
  }
}

TEST(TableKeyIndexTest, AbsentKeysAreNotFound) {
  for (const auto& [family, key_of] : KeyFamilies()) {
    Table table = MakeAuthors();
    std::vector<int64_t> keys;
    for (int64_t i = 0; i < 5000; ++i) {
      keys.push_back(key_of(i));
      ASSERT_TRUE(
          table.AppendRow({Value::Int(keys.back()), Value::Null()}).ok());
    }
    std::sort(keys.begin(), keys.end());
    for (const int64_t probe :
         {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{1} << 32,
          int64_t{3} << 20, INT64_MAX, INT64_MIN + 1, key_of(5000),
          key_of(123456)}) {
      if (std::binary_search(keys.begin(), keys.end(), probe)) continue;
      EXPECT_EQ(table.RowForPrimaryKey(probe).status().code(),
                StatusCode::kNotFound)
          << family << " probe " << probe;
    }
  }
}

TEST(TableKeyIndexTest, DuplicateAfterRehashChangesNothing) {
  Table table = MakeAuthors();
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 1000; ++i) {  // past several growths
    keys.push_back(i << 32);
    ASSERT_TRUE(table.AppendRow({Value::Int(keys.back()),
                                 Value::Str("n" + std::to_string(i))})
                    .ok());
  }
  for (const int64_t key : {keys.front(), keys[517], keys.back()}) {
    const auto duplicate =
        table.AppendRow({Value::Int(key), Value::Str("late")});
    EXPECT_EQ(duplicate.status().code(), StatusCode::kAlreadyExists);
    ExpectEveryKeyFound(table, keys, "after duplicate");
    EXPECT_EQ(table.GetString(999, 1), "n999");
  }
  // The next good row lands where the rejected ones did not.
  EXPECT_EQ(*table.AppendRow({Value::Int(7), Value::Str("next")}), 1000);
  EXPECT_EQ(*table.RowForPrimaryKey(7), 1000);
  EXPECT_EQ(table.GetString(1000, 1), "next");
}

TEST(TableKeyIndexTest, RejectedRowLeavesNoCells) {
  auto table = Table::Create(
      "t", {ColumnSpec{"name", ColumnType::kString, false, ""},
            ColumnSpec{"id", ColumnType::kInt64, true, ""},
            ColumnSpec{"v", ColumnType::kInt64, false, ""}});
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(
      table->AppendRow({Value::Str("a"), Value::Int(1), Value::Int(5)}).ok());
  // Each fails after the row's first cell was stored.
  EXPECT_FALSE(
      table->AppendRow({Value::Str("b"), Value::Int(2), Value::Str("x")}).ok());
  EXPECT_FALSE(
      table->AppendRow({Value::Str("c"), Value::Int(3), Value::Int(kNullCell)})
          .ok());
  EXPECT_FALSE(
      table->AppendRow({Value::Str("d"), Value::Null(), Value::Int(5)}).ok());
  EXPECT_FALSE(
      table->AppendRow({Value::Str("e"), Value::Int(1), Value::Int(5)}).ok());
  EXPECT_EQ(table->num_rows(), 1);
  ASSERT_TRUE(
      table->AppendRow({Value::Str("f"), Value::Int(2), Value::Int(6)}).ok());
  EXPECT_EQ(table->num_rows(), 2);
  EXPECT_EQ(table->GetString(1, 0), "f");
  EXPECT_EQ(table->GetInt(1, 2), 6);
  EXPECT_EQ(*table->RowForPrimaryKey(2), 1);
  EXPECT_EQ(table->RowForPrimaryKey(3).status().code(), StatusCode::kNotFound);
}

TEST(TableKeyIndexTest, MovedTableAnswersEveryLookup) {
  Table table = MakeAuthors();
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 3000; ++i) {
    keys.push_back(-1 - (i << 20));
    ASSERT_TRUE(table.AppendRow({Value::Int(keys.back()),
                                 Value::Str("n" + std::to_string(i % 100))})
                    .ok());
  }
  Table moved = std::move(table);
  ExpectEveryKeyFound(moved, keys, "moved");
  EXPECT_EQ(moved.FindString(1, "n42"), 42);
  EXPECT_EQ(moved.RowForPrimaryKey(0).status().code(), StatusCode::kNotFound);
  Table assigned = MakeAuthors();
  assigned = std::move(moved);
  ExpectEveryKeyFound(assigned, keys, "move-assigned");
  ASSERT_TRUE(assigned.AppendRow({Value::Int(0), Value::Str("n42")}).ok());
  EXPECT_EQ(*assigned.RowForPrimaryKey(0), 3000);
  EXPECT_EQ(assigned.raw(3000, 1), 42);
}

TEST(ValueTest, Accessors) {
  EXPECT_EQ(Value::Int(5).AsInt(), 5);
  EXPECT_EQ(Value::Str("s").AsString(), "s");
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(5).DebugString(), "5");
  EXPECT_EQ(Value::Str("s").DebugString(), "\"s\"");
  EXPECT_EQ(Value::Null().DebugString(), "NULL");
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value::Int(5), Value::Int(5));
  EXPECT_FALSE(Value::Int(5) == Value::Int(6));
  EXPECT_EQ(Value::Str("a"), Value::Str("a"));
  EXPECT_FALSE(Value::Str("a") == Value::Int(0));
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_FALSE(Value::Null() == Value::Int(0));
}

}  // namespace
}  // namespace distinct
