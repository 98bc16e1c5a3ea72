// Flat open-addressing index of dense ids over keys their owner stores.
//
// A Table's primary-key column, a Dictionary's strings and the catalog
// writer's intern table each hold their keys in id order already; a node
// map beside them would copy every key and allocate per entry. FlatIndex
// keeps only a 4-byte slot per bucket: the owner hashes the key it looks
// for and tells whether a probed id's key is that key. The index holds ids,
// never keys, pointers or views, so its owner stays freely movable.

#ifndef DISTINCT_COMMON_FLAT_INDEX_H_
#define DISTINCT_COMMON_FLAT_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace distinct {

/// Linear-probing index of ids 0..size()-1. A slot holds id + 1, or 0 when
/// empty; the slot array doubles before it is more than half full. Ids are
/// handed out in insertion order, so the owner's next id is size().
class FlatIndex {
 public:
  /// The id whose key `matches(id)` accepts, probing from `hash`; -1 when
  /// no indexed key does.
  template <typename Matches>
  int64_t Find(uint64_t hash, Matches&& matches) const {
    return slots_.empty() ? -1 : int64_t{slots_[Probe(hash, matches)]} - 1;
  }

  /// The id whose key `matches(id)` accepts; when none does, indexes the
  /// next id, size(), under `hash` and returns it. Growing re-slots every
  /// indexed id, in id order, by `hash_of(id)`; it is only called for ids
  /// below the new one, so the owner may store the new key after this
  /// returns.
  template <typename Matches, typename HashOf>
  int64_t FindOrInsert(uint64_t hash, Matches&& matches, HashOf&& hash_of) {
    size_t i = 0;
    if (!slots_.empty()) {
      i = Probe(hash, matches);
      if (slots_[i] != 0) {
        return int64_t{slots_[i]} - 1;
      }
    }
    DISTINCT_CHECK(size_ < int64_t{UINT32_MAX});  // id + 1 fits a slot
    if (2 * (size_ + 1) > static_cast<int64_t>(slots_.size())) {
      slots_.assign(slots_.empty() ? 16 : 2 * slots_.size(), 0);
      for (int64_t id = 0; id < size_; ++id) {
        slots_[Probe(hash_of(id), NoKey)] = static_cast<uint32_t>(id + 1);
      }
      i = Probe(hash, NoKey);
    }
    slots_[i] = static_cast<uint32_t>(++size_);
    return size_ - 1;
  }

  /// Indexed ids.
  int64_t size() const { return size_; }

  /// Bytes held by the slot array.
  int64_t bytes() const {
    return static_cast<int64_t>(slots_.capacity() * sizeof(uint32_t));
  }

 private:
  static bool NoKey(int64_t /*id*/) { return false; }

  /// The slot holding the id `matches` accepts, else the empty slot that
  /// ends the probe from `hash`'s home. Requires a non-empty slot array.
  template <typename Matches>
  size_t Probe(uint64_t hash, Matches&& matches) const {
    // The murmur3 finalizer folds the high bits into the low ones the mask
    // keeps, so strided keys (i << 32) spread.
    hash ^= hash >> 33;
    hash *= 0xff51afd7ed558ccdull;
    hash ^= hash >> 33;
    hash *= 0xc4ceb9fe1a85ec53ull;
    hash ^= hash >> 33;
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(hash) & mask;
    while (slots_[i] != 0 && !matches(int64_t{slots_[i]} - 1)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  std::vector<uint32_t> slots_;
  int64_t size_ = 0;
};

}  // namespace distinct

#endif  // DISTINCT_COMMON_FLAT_INDEX_H_
