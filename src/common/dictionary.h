// String interning: bidirectional string <-> dense integer id mapping.
//
// Tables dictionary-encode their string columns with one `Dictionary` per
// column, so tuples are plain int64 columns and joins compare integers.
// Each string is stored once, in id order; a FlatIndex over the ids finds
// a string's id from its hash without copying the key.

#ifndef DISTINCT_COMMON_DICTIONARY_H_
#define DISTINCT_COMMON_DICTIONARY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_index.h"

namespace distinct {

/// Assigns dense ids 0..n-1 to distinct strings in insertion order.
class Dictionary {
 public:
  Dictionary() = default;

  /// Returns the id of `text`, inserting it if new.
  int64_t Intern(std::string_view text);

  /// Returns the id of `text`, or std::nullopt if never interned.
  std::optional<int64_t> Find(std::string_view text) const;

  /// The string for `id`. Requires 0 <= id < size().
  const std::string& Lookup(int64_t id) const;

  int64_t size() const { return static_cast<int64_t>(strings_.size()); }

 private:
  std::vector<std::string> strings_;  // id -> string
  FlatIndex index_;                   // string -> id, over strings_
};

}  // namespace distinct

#endif  // DISTINCT_COMMON_DICTIONARY_H_
