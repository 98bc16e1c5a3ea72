#include "common/dictionary.h"

#include <functional>

#include "common/logging.h"

namespace distinct {

namespace {

uint64_t HashOf(std::string_view text) {
  return std::hash<std::string_view>()(text);
}

/// Whether the string with a probed id is `text`.
auto Holds(const std::vector<std::string>& strings, std::string_view text) {
  return [&strings, text](int64_t id) {
    return strings[static_cast<size_t>(id)] == text;
  };
}

}  // namespace

int64_t Dictionary::Intern(std::string_view text) {
  const int64_t id = index_.FindOrInsert(
      HashOf(text), Holds(strings_, text), [this](int64_t old) {
        return HashOf(strings_[static_cast<size_t>(old)]);
      });
  if (id == size()) {
    strings_.emplace_back(text);
  }
  return id;
}

std::optional<int64_t> Dictionary::Find(std::string_view text) const {
  const int64_t id = index_.Find(HashOf(text), Holds(strings_, text));
  if (id < 0) {
    return std::nullopt;
  }
  return id;
}

const std::string& Dictionary::Lookup(int64_t id) const {
  DISTINCT_CHECK(id >= 0 && id < size());
  return strings_[static_cast<size_t>(id)];
}

}  // namespace distinct
