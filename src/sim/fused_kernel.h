// Fused sparse pair kernel: one merge-join per (pair, path) instead of
// three, plus inverted-index candidate generation.
//
// The reference pair phase runs three independent sorted merges per
// (pair, path): SetResemblance (§2.3) and both WalkProbability directions
// (§2.4). All three walk the same two sorted tuple sequences, so one pass
// with separate accumulators — advanced in the identical visit order —
// produces bit-identical values while touching each entry once.
//
// Candidate generation exploits the sparsity blocking systems rely on: a
// pair whose profiles share no neighbor tuple on path P has resemblance
// numerator 0 and no walk matches on P, so both P features are exactly
// +0.0 and P adds nothing to the model-combined sums. A per-path inverted
// index tuple -> references yields, per path, exactly the pairs with at
// least one shared tuple there; the fill runs a merge-join only on those
// (pair, path) combinations, turning the dense quadratic fill into work
// proportional to actual neighbor overlap — even when one path (a constant
// attribute every reference reaches) makes every pair a candidate. The
// refill after an append builds the same index under a dirty mask, so it
// marks only the pairs it recomputes.
//
// Both read the per-path CSR slabs of a ProfileStore (sim/profile_store.h).

#ifndef DISTINCT_SIM_FUSED_KERNEL_H_
#define DISTINCT_SIM_FUSED_KERNEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/profile_store.h"

namespace distinct {

/// One path's pair features out of a single merge-join.
struct FusedPathFeatures {
  double resemblance = 0.0;
  double walk = 0.0;  // symmetric: mean of both directions
};

/// Single-pass resemblance + both walk directions for the pair (i, j) of
/// one path slab. Accumulators advance in the same visit order as the
/// three-pass reference — one denominator add per union element in
/// increasing tuple order, numerator and walk contributions per match in
/// match order — so each value is bit-identical to SetResemblance /
/// SymmetricWalkProbability on the original profiles. Defined inline: it
/// is the fused fill's innermost call, and keeping the body visible lets
/// the per-cell loop inline it instead of paying a cross-TU call per
/// (pair, path).
inline FusedPathFeatures FusedMergeJoin(const ProfileStore::Path& path,
                                        size_t i, size_t j) {
  FusedPathFeatures features;
  size_t x = path.offsets[i];
  const size_t x_end = path.offsets[i + 1];
  size_t y = path.offsets[j];
  const size_t y_end = path.offsets[j + 1];
  // SetResemblance defines an empty side as 0 before any accumulation; the
  // walk sums have no matches to visit either way.
  if (x == x_end || y == y_end) {
    return features;
  }

  double numerator = 0.0;
  double denominator = 0.0;
  double walk_ij = 0.0;  // Walk_P(i -> j): forward_i · reverse_j
  double walk_ji = 0.0;  // Walk_P(j -> i): forward_j · reverse_i
  while (x < x_end && y < y_end) {
    const int32_t tx = path.tuples[x];
    const int32_t ty = path.tuples[y];
    if (tx < ty) {
      denominator += path.forward[x];
      ++x;
    } else if (ty < tx) {
      denominator += path.forward[y];
      ++y;
    } else {
      numerator += std::min(path.forward[x], path.forward[y]);
      denominator += std::max(path.forward[x], path.forward[y]);
      walk_ij += path.forward[x] * path.reverse[y];
      walk_ji += path.forward[y] * path.reverse[x];
      ++x;
      ++y;
    }
  }
  for (; x < x_end; ++x) {
    denominator += path.forward[x];
  }
  for (; y < y_end; ++y) {
    denominator += path.forward[y];
  }
  if (denominator > 0.0) {
    features.resemblance = numerator / denominator;
  }
  // Same addition order as 0.5 * (Walk(i, j) + Walk(j, i)).
  features.walk = 0.5 * (walk_ij + walk_ji);
  return features;
}

/// The overlap-sparse candidate pairs, one lower-triangle bitset per join
/// path: bit b(i, j) = i(i-1)/2 + j of path P is set iff references i and
/// j share at least one neighbor tuple on P. A path on which no pair shares
/// a tuple keeps no bitset at all.
class CandidateSet {
 public:
  /// Per path, two passes over the entries: pass 1 keeps the tuples whose
  /// groups can mark a pair, pass 2 groups their holders by tuple (an
  /// inverted index tuple -> references); then every pair inside a group
  /// is marked. Without `dirty` a kept tuple is one two or more references
  /// hold, and the cost is the two passes plus the (pair, shared tuple)
  /// incidences. With `dirty` (size num_refs), pass 1 reads only the dirty
  /// references' entries and keeps the tuples they hold, and only the
  /// pairs with a dirty endpoint are marked, at O(dirty members x members)
  /// per group: exactly the full build's bits on those cells, and no
  /// clean-clean cell. That is what the masked refill after a delta
  /// (UpdatePairMatrices) needs — a full build over a mega-name costs more
  /// than the joins it saves when only a few rows changed.
  static CandidateSet Build(const ProfileStore& store,
                            const std::vector<char>* dirty = nullptr);

  /// Whether the strict-lower-triangle pair (i, j), i > j, shares a tuple
  /// on path `p`.
  bool contains(size_t p, size_t i, size_t j) const {
    return has_path(p) && (Window(p, i * (i - 1) / 2 + j, 1) & 1);
  }

  /// Whether (i, j), i > j, shares a tuple on any path (the union).
  bool contains(size_t i, size_t j) const;

  /// Whether any pair shares a tuple on path `p`; Window requires it.
  bool has_path(size_t p) const { return !path_bits_[p].empty(); }

  /// Path `p`'s triangle bits [pos, pos + len), 1 <= len <= 64, with bit
  /// `pos` in the low bit. The range must lie inside the triangle.
  uint64_t Window(size_t p, size_t pos, size_t len) const {
    const uint64_t* bits = path_bits_[p].data();
    const size_t q = pos >> 6;
    const size_t s = pos & 63;
    uint64_t word = bits[q] >> s;
    if (s + len > 64) {
      word |= bits[q + 1] << (64 - s);
    }
    return len == 64 ? word : word & ((uint64_t{1} << len) - 1);
  }

  size_t num_refs() const { return num_refs_; }
  size_t num_paths() const { return path_bits_.size(); }
  /// Pairs sharing a tuple on at least one path, out of n(n-1)/2.
  int64_t count() const { return count_; }

 private:
  CandidateSet() = default;

  /// Sizes one empty bitset per path; Build allocates a path's bits only
  /// once it has groups to mark.
  void Init(const ProfileStore& store);
  /// Drops all-zero path bitsets and counts the union.
  void Finish();

  size_t num_refs_ = 0;
  size_t words_ = 0;  // words per allocated path bitset
  int64_t count_ = 0;
  std::vector<std::vector<uint64_t>> path_bits_;
};

}  // namespace distinct

#endif  // DISTINCT_SIM_FUSED_KERNEL_H_
