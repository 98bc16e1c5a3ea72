#include "sim/fused_kernel.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace distinct {

PairFeatures FusedPairFeatures(const ProfileStore& store, size_t i,
                               size_t j) {
  PairFeatures features;
  features.resemblance.reserve(store.num_paths());
  features.walk.reserve(store.num_paths());
  for (size_t p = 0; p < store.num_paths(); ++p) {
    const FusedPathFeatures fused = FusedMergeJoin(store.path(p), i, j);
    features.resemblance.push_back(fused.resemblance);
    features.walk.push_back(fused.walk);
  }
  return features;
}

void CandidateSet::Init(const ProfileStore& store) {
  num_refs_ = store.num_refs();
  const size_t cells = num_refs_ < 2 ? 0 : num_refs_ * (num_refs_ - 1) / 2;
  words_ = (cells + 63) / 64;
  path_bits_.resize(store.num_paths());
}

void CandidateSet::Finish() {
  for (std::vector<uint64_t>& bits : path_bits_) {
    if (std::all_of(bits.begin(), bits.end(),
                    [](uint64_t word) { return word == 0; })) {
      bits = {};  // the fill skips a path without bits outright
    }
  }
  // The union count, one word position at a time across the paths.
  std::vector<const uint64_t*> live;
  for (const std::vector<uint64_t>& bits : path_bits_) {
    if (!bits.empty()) {
      live.push_back(bits.data());
    }
  }
  count_ = 0;
  for (size_t w = 0; w < words_; ++w) {
    uint64_t any = 0;
    for (const uint64_t* bits : live) {
      any |= bits[w];
    }
    count_ += std::popcount(any);
  }
}

bool CandidateSet::contains(size_t i, size_t j) const {
  for (size_t p = 0; p < path_bits_.size(); ++p) {
    if (contains(p, i, j)) {
      return true;
    }
  }
  return false;
}

namespace {

/// Calls `visit(tuple)` for every entry of slice `r` of `path`, in
/// ascending tuple order, stepping over a hub slice's dropped entry.
template <typename Visit>
void ForEachTuple(const ProfileStore::Path& path, size_t r,
                  const Visit& visit) {
  const ProfileStore::SliceView view = path.slice(r);
  const uint32_t cut = std::min(view.skip, view.size);
  for (uint32_t e = 0; e < cut; ++e) {
    visit(view.tuples[e]);
  }
  for (uint32_t e = cut + 1; e < view.size; ++e) {
    visit(view.tuples[e]);
  }
}

}  // namespace

CandidateSet CandidateSet::Build(const ProfileStore& store,
                                 const std::vector<char>* dirty) {
  CandidateSet set;
  set.Init(store);
  const size_t n = set.num_refs_;
  if (set.words_ == 0) {
    return set;  // fewer than two references: no pairs
  }

  // Scratch shared across paths and, via thread_local, across the many
  // names one scan worker or one catalog apply builds. The two bitmaps and
  // dense_of span the tuple id space, so re-zeroing them per name would
  // dwarf the real work; every path restores them to all-clear / all -1.
  // The other vectors are cleared before each path uses them and keep
  // their capacity, which spares most builds their allocations.
  static thread_local std::vector<uint64_t> seen;     // held by some ref
  static thread_local std::vector<uint64_t> keep;     // tuples to group
  static thread_local std::vector<int32_t> dense_of;  // tuple -> dense id
  static thread_local std::vector<int32_t> touched;   // dense id -> tuple
  static thread_local std::vector<uint32_t> counts;   // dense id -> postings
  // (ref, dense id) of every kept tuple's entry, refs ascending.
  static thread_local std::vector<std::pair<uint32_t, uint32_t>> postings;
  static thread_local std::vector<uint32_t> group_begin;  // dense id -> start
  static thread_local std::vector<uint32_t> grouped;  // refs by dense id
  // (hub tuple, ref) of every hub slice of a path marked by hub.
  static thread_local std::vector<std::pair<int32_t, uint32_t>> hub_members;

  // Marks the pairs inside one group of references, ascending — exactly
  // the incidences the fused kernel would visit. With a mask only a dirty
  // member marks, pairing itself with every other member, so a group costs
  // O(dirty members x members) and no clean-clean pair is marked; a
  // dirty-dirty pair marked from both ends is idempotent.
  const auto mark_group = [&](std::vector<uint64_t>& bits,
                              const uint32_t* members, size_t size) {
    const auto mark = [&bits](size_t i, size_t j) {  // i > j
      const size_t bit = i * (i - 1) / 2 + j;
      bits[bit >> 6] |= uint64_t{1} << (bit & 63);
    };
    for (size_t a = 0; a < size; ++a) {
      const size_t i = members[a];
      if (dirty != nullptr && !(*dirty)[i]) {
        continue;
      }
      for (size_t b = 0; b < a; ++b) {
        mark(i, members[b]);
      }
      if (dirty != nullptr) {
        for (size_t b = a + 1; b < size; ++b) {
          mark(members[b], i);
        }
      }
    }
  };

  for (size_t p = 0; p < store.num_paths(); ++p) {
    const ProfileStore::Path& path = store.path(p);
    if (path.by_hub) {
      // Reverse-only suffixes: slices under different hubs share no
      // tuple. Group by hub tuple, not by suffix pointer — references
      // under one hub may each pin their own equal copy.
      hub_members.clear();
      for (size_t r = 0; r < n; ++r) {
        if (path.is_hub(r)) {
          hub_members.emplace_back(path.hubs[path.hub_of[r]].hub,
                                   static_cast<uint32_t>(r));
        }
      }
      std::sort(hub_members.begin(), hub_members.end());
      grouped.clear();
      for (const auto& [hub, r] : hub_members) {
        grouped.push_back(r);
      }
      std::vector<uint64_t>& bits = set.path_bits_[p];
      for (size_t begin = 0; begin < hub_members.size();) {
        size_t end = begin + 1;
        while (end < hub_members.size() &&
               hub_members[end].first == hub_members[begin].first) {
          ++end;
        }
        if (end - begin >= 2) {
          if (bits.empty()) {
            bits.assign(set.words_, 0);
          }
          mark_group(bits, grouped.data() + begin, end - begin);
        }
        begin = end;
      }
      continue;
    }
    if (path.tuples.empty() && path.hubs.empty()) {
      continue;
    }
    // Slices are sorted, so their last tuples bound the path's ids.
    size_t max_tuple = 0;
    for (size_t r = 0; r < n; ++r) {
      const ProfileStore::SliceView view = path.slice(r);
      if (view.size > 0) {
        max_tuple = std::max(max_tuple,
                             static_cast<size_t>(view.tuples[view.size - 1]));
      }
    }
    if ((max_tuple >> 6) >= seen.size()) {
      seen.resize((max_tuple >> 6) + 1, 0);
      keep.resize((max_tuple >> 6) + 1, 0);
    }
    if (max_tuple >= dense_of.size()) {
      dense_of.resize(max_tuple + 1, -1);
    }
    // Pass 1 keeps the tuples whose groups can mark a pair. Without a mask
    // those are the tuples two or more references hold: a private tuple
    // marks nothing, and on hub paths (thousands of entries per reference)
    // almost every tuple is one. Two bitmaps over the tuple id space — an
    // eighth of a byte per id, so they stay in cache where an index would
    // not — find them. With a mask only a group with a dirty member can
    // mark a pair, so pass 1 keeps the tuples the dirty references hold.
    if (dirty == nullptr) {
      const auto count = [](int32_t tuple) {
        const auto t = static_cast<size_t>(tuple);
        const uint64_t bit = uint64_t{1} << (t & 63);
        keep[t >> 6] |= seen[t >> 6] & bit;
        seen[t >> 6] |= bit;
      };
      for (const int32_t tuple : path.tuples) {
        count(tuple);
      }
      for (size_t r = 0; r < n && !path.hubs.empty(); ++r) {
        if (path.is_hub(r)) {
          ForEachTuple(path, r, count);
        }
      }
    } else {
      bool kept = false;
      for (size_t r = 0; r < n; ++r) {
        if (!(*dirty)[r]) {
          continue;
        }
        ForEachTuple(path, r, [&kept](int32_t tuple) {
          const auto t = static_cast<size_t>(tuple);
          keep[t >> 6] |= uint64_t{1} << (t & 63);
          kept = true;
        });
      }
      if (!kept) {
        continue;  // no dirty reference has entries on this path
      }
    }
    // Pass 2: dense-number the kept tuples, count their postings (a
    // counting sort's histogram) and collect them in reference order.
    // `seen` is done with: every set bit of a word an entry touches came
    // from this path, so clearing the word restores it. The pushes may
    // allocate, after which the compiler would reload the thread-local
    // buffers on every entry, so the loop reads them through raw pointers.
    uint64_t* const seen_words = seen.data();
    const uint64_t* const keep_words = keep.data();
    int32_t* const dense = dense_of.data();
    touched.clear();
    counts.clear();
    postings.clear();
    for (size_t r = 0; r < n; ++r) {
      ForEachTuple(path, r, [&](int32_t tuple) {
        const auto t = static_cast<size_t>(tuple);
        seen_words[t >> 6] = 0;
        if (((keep_words[t >> 6] >> (t & 63)) & 1) == 0) {
          return;
        }
        if (dense[t] < 0) {
          dense[t] = static_cast<int32_t>(touched.size());
          touched.push_back(static_cast<int32_t>(t));
          counts.push_back(0);
        }
        const auto d = static_cast<uint32_t>(dense[t]);
        ++counts[d];
        postings.emplace_back(static_cast<uint32_t>(r), d);
      });
    }
    for (const int32_t t : touched) {
      keep[static_cast<size_t>(t) >> 6] = 0;
      dense_of[static_cast<size_t>(t)] = -1;
    }
    if (postings.empty()) {
      continue;  // no group on this path
    }
    std::vector<uint64_t>& bits = set.path_bits_[p];
    bits.assign(set.words_, 0);

    // Scatter references into per-tuple groups (counting sort, ref order
    // preserved ascending) and mark the pairs inside each group.
    const size_t distinct = touched.size();
    group_begin.assign(distinct + 1, 0);
    for (size_t d = 0; d < distinct; ++d) {
      group_begin[d + 1] = group_begin[d] + counts[d];
    }
    grouped.resize(postings.size());
    counts.assign(distinct, 0);  // reused as per-group cursors
    for (const auto& [r, d] : postings) {
      grouped[group_begin[d] + counts[d]++] = r;
    }
    for (size_t d = 0; d < distinct; ++d) {
      mark_group(bits, grouped.data() + group_begin[d],
                 group_begin[d + 1] - group_begin[d]);
    }
  }

  set.Finish();
  return set;
}

}  // namespace distinct
