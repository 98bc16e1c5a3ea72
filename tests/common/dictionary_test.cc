#include "common/dictionary.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace distinct {
namespace {

TEST(DictionaryTest, InternAssignsDenseIdsInOrder) {
  Dictionary dict;
  EXPECT_EQ(dict.Intern("a"), 0);
  EXPECT_EQ(dict.Intern("b"), 1);
  EXPECT_EQ(dict.Intern("c"), 2);
  EXPECT_EQ(dict.size(), 3);
}

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary dict;
  const int64_t id = dict.Intern("x");
  EXPECT_EQ(dict.Intern("x"), id);
  EXPECT_EQ(dict.size(), 1);
}

TEST(DictionaryTest, LookupRoundTrips) {
  Dictionary dict;
  const int64_t a = dict.Intern("alpha");
  const int64_t b = dict.Intern("beta");
  EXPECT_EQ(dict.Lookup(a), "alpha");
  EXPECT_EQ(dict.Lookup(b), "beta");
}

TEST(DictionaryTest, FindWithoutInserting) {
  Dictionary dict;
  dict.Intern("present");
  EXPECT_EQ(dict.Find("present"), 0);
  EXPECT_FALSE(dict.Find("absent").has_value());
  EXPECT_EQ(dict.size(), 1);
}

TEST(DictionaryTest, EmptyStringIsAValidKey) {
  Dictionary dict;
  const int64_t id = dict.Intern("");
  EXPECT_EQ(dict.Lookup(id), "");
  EXPECT_EQ(dict.Find(""), id);
}

TEST(DictionaryTest, ManyStrings) {
  Dictionary dict;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(dict.Intern("key" + std::to_string(i)), i);
  }
  EXPECT_EQ(dict.size(), 1000);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(dict.Lookup(i), "key" + std::to_string(i));
  }
}

/// `strings[i]` has id i, both ways.
void ExpectIdsStable(const Dictionary& dict,
                     const std::vector<std::string>& strings) {
  ASSERT_EQ(dict.size(), static_cast<int64_t>(strings.size()));
  for (size_t id = 0; id < strings.size(); ++id) {
    ASSERT_EQ(dict.Find(strings[id]), static_cast<int64_t>(id)) << strings[id];
    ASSERT_EQ(dict.Lookup(static_cast<int64_t>(id)), strings[id]);
  }
}

/// The empty string, then prefixes of one another ("a", "ab", ...), then
/// many short keys, so the index grows many times over all of them.
std::vector<std::string> GrowthStrings() {
  std::vector<std::string> strings = {""};
  std::string prefix;
  for (int i = 0; i < 300; ++i) {
    prefix += static_cast<char>('a' + i % 26);
    strings.push_back(prefix);
  }
  for (int i = 0; i < 100000; ++i) {
    strings.push_back("k" + std::to_string(i));
  }
  return strings;
}

TEST(DictionaryTest, IdsStableAcrossGrowth) {
  const std::vector<std::string> strings = GrowthStrings();
  Dictionary dict;
  for (size_t i = 0; i < strings.size(); ++i) {
    ASSERT_EQ(dict.Intern(strings[i]), static_cast<int64_t>(i));
    if (i > 8 && (i & (i - 1)) == 0) {
      ExpectIdsStable(dict, {strings.begin(), strings.begin() + i + 1});
    }
  }
  ExpectIdsStable(dict, strings);
  // Interning again hands back the same ids and adds nothing.
  for (size_t i = 0; i < strings.size(); i += 997) {
    EXPECT_EQ(dict.Intern(strings[i]), static_cast<int64_t>(i));
  }
  EXPECT_EQ(dict.size(), static_cast<int64_t>(strings.size()));
}

TEST(DictionaryTest, FindNeverInserts) {
  Dictionary dict;
  EXPECT_FALSE(dict.Find("").has_value());
  EXPECT_EQ(dict.size(), 0);
  const std::vector<std::string> strings = GrowthStrings();
  for (const std::string& text : strings) {
    dict.Intern(text);
  }
  // Absent: an extension of the longest prefix, a key's own prefix that
  // was never interned on its own, and keys past the range.
  for (const std::string& absent :
       {strings[300] + "a", std::string("k"), std::string("k100000"),
        std::string("K1"), std::string(1, '\0')}) {
    EXPECT_FALSE(dict.Find(absent).has_value()) << absent;
  }
  EXPECT_EQ(dict.size(), static_cast<int64_t>(strings.size()));
  ExpectIdsStable(dict, strings);
}

TEST(DictionaryTest, MovedDictionaryAnswersEveryLookup) {
  const std::vector<std::string> strings = GrowthStrings();
  Dictionary dict;
  for (const std::string& text : strings) {
    dict.Intern(text);
  }
  Dictionary moved = std::move(dict);
  ExpectIdsStable(moved, strings);
  Dictionary assigned;
  assigned.Intern("other");
  assigned = std::move(moved);
  ExpectIdsStable(assigned, strings);
  EXPECT_EQ(assigned.Intern("new"), static_cast<int64_t>(strings.size()));
  EXPECT_EQ(assigned.Find("new"), static_cast<int64_t>(strings.size()));
}

}  // namespace
}  // namespace distinct
