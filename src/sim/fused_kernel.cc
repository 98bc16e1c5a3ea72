#include "sim/fused_kernel.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace distinct {

PairFeatures FusedFeatures(const ProfileArena& arena, size_t i, size_t j) {
  PairFeatures features;
  features.resemblance.resize(arena.num_paths());
  features.walk.resize(arena.num_paths());
  for (size_t p = 0; p < arena.num_paths(); ++p) {
    const FusedPathFeatures fused = FusedMergeJoin(arena.path(p), i, j);
    features.resemblance[p] = fused.resemblance;
    features.walk[p] = fused.walk;
  }
  return features;
}

namespace {

/// ORs `word` into the triangle bitmap at bit position `bit_pos` (the low
/// bit of `word` lands on `bit_pos`). Callers guarantee every set bit of
/// `word` stays inside the bitmap.
inline void OrWordAt(std::vector<uint64_t>& bits, size_t bit_pos,
                     uint64_t word) {
  if (word == 0) {
    return;
  }
  const size_t q = bit_pos >> 6;
  const size_t s = bit_pos & 63;
  if (s == 0) {
    bits[q] |= word;
    return;
  }
  bits[q] |= word << s;
  const uint64_t spill = word >> (64 - s);
  if (spill != 0) {
    bits[q + 1] |= spill;
  }
}

}  // namespace

void CandidateSet::Init(const ProfileArena& arena) {
  num_refs_ = arena.num_refs();
  const size_t cells = num_refs_ < 2 ? 0 : num_refs_ * (num_refs_ - 1) / 2;
  words_ = (cells + 63) / 64;
  path_bits_.resize(arena.num_paths());
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

CandidateSet CandidateSet::Build(const ProfileArena& arena,
                                 const CandidateBuildOptions& options) {
  CandidateSet set;
  set.Init(arena);
  const size_t n = set.num_refs_;
  if (set.words_ == 0) {
    return set;  // fewer than two references: no pairs
  }

  // Scratch shared across paths (and, via thread_local, across the many
  // names one scan worker builds — same idiom and lifetime contract as
  // BuildPartial below): the two bitmaps and dense_of span the tuple id
  // space and are restored to all-clear / all -1 after every path.
  static thread_local std::vector<uint64_t> seen;     // held by some ref
  static thread_local std::vector<uint64_t> shared;   // held by >= 2 refs
  static thread_local std::vector<int32_t> dense_of;  // tuple -> dense id
  std::vector<int32_t> touched;       // dense id -> tuple
  std::vector<uint32_t> counts;       // dense id -> postings
  // (ref, dense id) of every shared-tuple entry, refs ascending.
  std::vector<std::pair<uint32_t, uint32_t>> postings;
  std::vector<uint32_t> group_begin;  // dense id -> start in grouped
  std::vector<uint32_t> grouped;      // refs grouped by dense tuple id
  std::vector<uint64_t> tuple_bits;   // dense id -> reference bitmap
  std::vector<uint64_t> row;          // one reference's candidate row

  const size_t words = (n + 63) / 64;
  for (size_t p = 0; p < arena.num_paths(); ++p) {
    const ProfileArena::Path& path = arena.path(p);
    const size_t entries = path.tuples.size();
    if (entries == 0) {
      continue;
    }
    // Pass 1: a tuple only one reference holds marks no pair, and on hub
    // paths (thousands of entries per reference) almost every tuple is
    // such a private one. Two bitmaps over the tuple id space — an eighth
    // of a byte per id, so they stay in cache where an index would not —
    // find the tuples held at least twice.
    for (size_t e = 0; e < entries; ++e) {
      const auto t = static_cast<size_t>(path.tuples[e]);
      if ((t >> 6) >= seen.size()) {
        seen.resize((t >> 6) + 1, 0);
        shared.resize((t >> 6) + 1, 0);
      }
      const uint64_t bit = uint64_t{1} << (t & 63);
      shared[t >> 6] |= seen[t >> 6] & bit;
      seen[t >> 6] |= bit;
    }
    // Pass 2: dense-number the shared tuples, count their postings (a
    // counting sort's histogram) and collect them in reference order.
    // `seen` is done with: every set bit of a word an entry touches came
    // from this path, so clearing the word restores it.
    touched.clear();
    counts.clear();
    postings.clear();
    for (size_t r = 0; r < n; ++r) {
      for (size_t e = path.offsets[r]; e < path.offsets[r + 1]; ++e) {
        const auto t = static_cast<size_t>(path.tuples[e]);
        seen[t >> 6] = 0;
        if (((shared[t >> 6] >> (t & 63)) & 1) == 0) {
          continue;
        }
        if (t >= dense_of.size()) {
          dense_of.resize(t + 1, -1);
        }
        if (dense_of[t] < 0) {
          dense_of[t] = static_cast<int32_t>(touched.size());
          touched.push_back(static_cast<int32_t>(t));
          counts.push_back(0);
        }
        const auto d = static_cast<uint32_t>(dense_of[t]);
        ++counts[d];
        postings.emplace_back(static_cast<uint32_t>(r), d);
      }
    }
    for (const int32_t t : touched) {
      shared[static_cast<size_t>(t) >> 6] = 0;
    }
    if (postings.empty()) {
      continue;  // no pair shares a tuple on this path
    }
    std::vector<uint64_t>& bits = set.path_bits_[p];
    bits.assign(set.words_, 0);
    const size_t distinct = touched.size();

    // The histogram prices both machines before either runs: grouped
    // marking visits every within-group pair (Σ count²), the bitset path
    // ORs ~(postings + n) · words/2 words. Hub tuples send Σ count²
    // quadratic, which is exactly when the word ops win.
    double grouped_cost = 0.0;
    for (size_t d = 0; d < distinct; ++d) {
      grouped_cost += static_cast<double>(counts[d]) *
                      static_cast<double>(counts[d]);
    }
    const double bitset_cost = static_cast<double>(postings.size() + n) *
                               static_cast<double>(words) * 0.5;
    const bool use_bitset =
        n >= static_cast<size_t>(std::max(options.bitset_min_refs, 0)) &&
        distinct * words <= options.bitset_max_scratch_words &&
        (options.bitset_cost_factor <= 0.0 ||
         grouped_cost > options.bitset_cost_factor * bitset_cost);

    if (use_bitset) {
      // Dense path: tuple -> reference bitmaps, then one word-parallel OR
      // per (reference, tuple) posting and a shifted OR into the
      // contiguous triangle row of each reference. Hub tuples cost words,
      // not pairs².
      tuple_bits.assign(distinct * words, 0);
      for (const auto& [r, d] : postings) {
        tuple_bits[d * words + (r >> 6)] |= uint64_t{1} << (r & 63);
      }
      row.assign(words, 0);
      for (size_t k = 0; k < postings.size();) {
        const size_t r = postings[k].first;
        size_t k_end = k;
        while (k_end < postings.size() && postings[k_end].first == r) {
          ++k_end;
        }
        if (r == 0) {
          k = k_end;
          continue;
        }
        // Only bits below r survive the splice, so only the words that can
        // hold them are ORed (and re-zeroed).
        const size_t row_words = (r + 63) / 64;
        for (; k < k_end; ++k) {
          const uint64_t* src = tuple_bits.data() + postings[k].second * words;
          for (size_t w = 0; w < row_words; ++w) {
            row[w] |= src[w];
          }
        }
        const size_t base = r * (r - 1) / 2;
        const size_t full = r / 64;
        const size_t rem = r % 64;
        for (size_t w = 0; w < full; ++w) {
          OrWordAt(bits, base + 64 * w, row[w]);
        }
        if (rem != 0) {
          OrWordAt(bits, base + 64 * full,
                   row[full] & ((uint64_t{1} << rem) - 1));
        }
        std::fill(row.begin(), row.begin() + static_cast<int64_t>(row_words),
                  0);
      }
    } else {
      // Sparse path: scatter references into per-tuple groups (counting
      // sort, ref order preserved ascending) and mark every pair inside a
      // group — exactly the incidences the fused kernel would visit.
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
        const size_t begin = group_begin[d];
        const size_t end = group_begin[d + 1];
        for (size_t a = begin; a < end; ++a) {
          const size_t i = grouped[a];
          const size_t row_base = i * (i - 1) / 2;
          for (size_t b = begin; b < a; ++b) {
            const size_t bit = row_base + grouped[b];
            bits[bit >> 6] |= uint64_t{1} << (bit & 63);
          }
        }
      }
    }
    for (const int32_t t : touched) {
      dense_of[static_cast<size_t>(t)] = -1;
    }
  }

  set.Finish();
  return set;
}

CandidateSet CandidateSet::BuildPartial(const ProfileArena& arena,
                                        const std::vector<char>& dirty) {
  CandidateSet set;
  set.Init(arena);
  const size_t n = set.num_refs_;
  if (set.words_ == 0) {
    return set;  // fewer than two references: no pairs
  }

  // Build()'s tuple groups, restricted to the dirty rows' neighborhoods,
  // without the sort: pass 1 numbers each tuple a dirty reference holds
  // (a direct-indexed tuple -> bucket map, reset via the touched list
  // between paths), pass 2 scatters every reference holding a numbered
  // tuple into its bucket, and only pairs touching a dirty reference are
  // marked per bucket — clean-clean cells are never consulted by the
  // partial refill, and marking a both-dirty pair from either end twice
  // is idempotent. Per path the cost is one O(entries) scan plus
  // O(dirty_members x members) marking per bucket, instead of Build()'s
  // sort and O(members^2) groups.
  // Scratch persists across calls (bucket_of alone spans the tuple id
  // space, ~100KB) — one IncrementalCatalog apply runs this for hundreds
  // of names, and re-zeroing per name would dwarf the real work. Each path
  // iteration restores bucket_of to all -1 via `touched` and leaves the
  // bucket vectors cleared, so a new call always sees clean scratch.
  static thread_local std::vector<int32_t> bucket_of;  // tuple -> bucket id
  static thread_local std::vector<int32_t> touched;    // numbered this path
  static thread_local std::vector<std::vector<int32_t>> buckets;
  for (size_t p = 0; p < arena.num_paths(); ++p) {
    const ProfileArena::Path& path = arena.path(p);
    touched.clear();
    for (size_t r = 0; r < n; ++r) {
      if (!dirty[r]) {
        continue;
      }
      for (size_t e = path.offsets[r]; e < path.offsets[r + 1]; ++e) {
        const auto t = static_cast<size_t>(path.tuples[e]);
        if (t >= bucket_of.size()) {
          bucket_of.resize(t + 1, -1);
        }
        if (bucket_of[t] < 0) {
          bucket_of[t] = static_cast<int32_t>(touched.size());
          touched.push_back(static_cast<int32_t>(t));
        }
      }
    }
    if (touched.empty()) {
      continue;  // no dirty reference has entries on this path
    }
    std::vector<uint64_t>& bits = set.path_bits_[p];
    bits.assign(set.words_, 0);
    if (buckets.size() < touched.size()) {
      buckets.resize(touched.size());
    }
    for (size_t r = 0; r < n; ++r) {
      for (size_t e = path.offsets[r]; e < path.offsets[r + 1]; ++e) {
        const auto t = static_cast<size_t>(path.tuples[e]);
        if (t < bucket_of.size() && bucket_of[t] >= 0) {
          buckets[static_cast<size_t>(bucket_of[t])].push_back(
              static_cast<int32_t>(r));
        }
      }
    }
    for (size_t b = 0; b < touched.size(); ++b) {
      std::vector<int32_t>& members = buckets[b];
      for (const int32_t ai : members) {
        const auto i = static_cast<size_t>(ai);
        if (!dirty[i]) {
          continue;
        }
        for (const int32_t bj : members) {
          const auto j = static_cast<size_t>(bj);
          if (j == i) {
            continue;
          }
          const size_t hi = i > j ? i : j;
          const size_t lo = i > j ? j : i;
          const size_t bit = hi * (hi - 1) / 2 + lo;
          bits[bit >> 6] |= uint64_t{1} << (bit & 63);
        }
      }
      members.clear();
    }
    for (const int32_t t : touched) {
      bucket_of[static_cast<size_t>(t)] = -1;
    }
  }

  set.Finish();
  return set;
}

}  // namespace distinct
