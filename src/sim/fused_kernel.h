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
// Both read the slices of a ProfileStore (sim/profile_store.h) through its
// one SliceView, explicit slab slices and hub slices alike, and so does
// FusedPairFeatures, the per-pair reader training samples its features
// with.

#ifndef DISTINCT_SIM_FUSED_KERNEL_H_
#define DISTINCT_SIM_FUSED_KERNEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/feature_vector.h"
#include "sim/profile_store.h"

namespace distinct {

/// One path's pair features out of a single merge-join.
struct FusedPathFeatures {
  double resemblance = 0.0;
  double walk = 0.0;  // symmetric: mean of both directions
};

/// Single-pass resemblance + both walk directions for one pair of slices
/// of one path. Accumulators advance in the same visit order as the
/// three-pass reference — one denominator add per union element in
/// increasing tuple order, numerator and walk contributions per match in
/// match order — so each value is bit-identical to SetResemblance /
/// SymmetricWalkProbability on the original profiles. Defined inline: it
/// is the fused fill's innermost call, and keeping the body visible lets
/// the per-cell loop inline it instead of paying a cross-TU call per
/// (pair, path).
///
/// With `kScaled` each value is read as scale * array[e] — the product
/// the expanded profile of a hub slice holds — and each view's `skip`
/// entry is stepped over; an explicit side then reads its values times
/// 1.0, which is exact. Without it both views must be explicit, and the
/// arrays are read as they are.
template <bool kScaled>
inline FusedPathFeatures FusedMergeJoin(const ProfileStore::SliceView& a,
                                        const ProfileStore::SliceView& b) {
  FusedPathFeatures features;
  // A view whose first entry is the skipped one starts at its second.
  uint32_t x = kScaled && a.skip == 0 ? 1 : 0;
  uint32_t y = kScaled && b.skip == 0 ? 1 : 0;
  const uint32_t x_end = a.size;
  const uint32_t y_end = b.size;
  // SetResemblance defines an empty side as 0 before any accumulation; the
  // walk sums have no matches to visit either way.
  if (x >= x_end || y >= y_end) {
    return features;
  }
  const auto forward_a = [&a](uint32_t e) {
    return kScaled ? a.forward_scale * a.forward[e] : a.forward[e];
  };
  const auto forward_b = [&b](uint32_t e) {
    return kScaled ? b.forward_scale * b.forward[e] : b.forward[e];
  };
  const auto reverse_a = [&a](uint32_t e) {
    return kScaled ? a.reverse_scale * a.reverse[e] : a.reverse[e];
  };
  const auto reverse_b = [&b](uint32_t e) {
    return kScaled ? b.reverse_scale * b.reverse[e] : b.reverse[e];
  };
  const auto next_x = [&] {
    ++x;
    if (kScaled && x == a.skip) {
      ++x;
    }
  };
  const auto next_y = [&] {
    ++y;
    if (kScaled && y == b.skip) {
      ++y;
    }
  };

  double numerator = 0.0;
  double denominator = 0.0;
  double walk_ij = 0.0;  // Walk_P(i -> j): forward_i · reverse_j
  double walk_ji = 0.0;  // Walk_P(j -> i): forward_j · reverse_i
  while (x < x_end && y < y_end) {
    const int32_t tx = a.tuples[x];
    const int32_t ty = b.tuples[y];
    if (tx < ty) {
      denominator += forward_a(x);
      next_x();
    } else if (ty < tx) {
      denominator += forward_b(y);
      next_y();
    } else {
      const double fx = forward_a(x);
      const double fy = forward_b(y);
      numerator += std::min(fx, fy);
      denominator += std::max(fx, fy);
      walk_ij += fx * reverse_b(y);
      walk_ji += fy * reverse_a(x);
      next_x();
      next_y();
    }
  }
  for (; x < x_end; next_x()) {
    denominator += forward_a(x);
  }
  for (; y < y_end; next_y()) {
    denominator += forward_b(y);
  }
  if (denominator > 0.0) {
    features.resemblance = numerator / denominator;
  }
  // Same addition order as 0.5 * (Walk(i, j) + Walk(j, i)).
  features.walk = 0.5 * (walk_ij + walk_ji);
  return features;
}

/// The join of slices i and j of `path`: the plain read when both are
/// explicit, the scaled one when either is a hub slice.
inline FusedPathFeatures FusedMergeJoin(const ProfileStore::Path& path,
                                        size_t i, size_t j) {
  if (path.is_hub(i) || path.is_hub(j)) {
    return FusedMergeJoin<true>(path.slice(i), path.slice(j));
  }
  return FusedMergeJoin<false>(path.slice(i), path.slice(j));
}

/// Every path's features of the pair (i, j) of `store`, one FusedMergeJoin
/// per path, in the order given: training reads its sampled pairs, in
/// sampling order, with it. Each value is bit-identical to the three-pass
/// oracle of sim/feature_vector.h over the two references' expanded
/// profiles, and to the same call with i and j swapped.
PairFeatures FusedPairFeatures(const ProfileStore& store, size_t i, size_t j);

/// The overlap-sparse candidate pairs, one lower-triangle bitset per join
/// path: bit b(i, j) = i(i-1)/2 + j of path P is set when references i
/// and j share at least one neighbor tuple on P — iff, except on a path
/// marked by hub, where a pair under one hub is set whether or not its
/// slices meet. A path on which no pair is set keeps no bitset at all.
class CandidateSet {
 public:
  /// On a path whose slices are all hub slices over reverse-only suffixes
  /// (ProfileStore::Path::by_hub), slices under different hubs share no
  /// tuple, so the references are grouped by hub tuple and every pair
  /// inside a group is marked without reading an entry — a superset of
  /// the sharing pairs, which is exact (a marked pair that shares nothing
  /// adds a signed zero). On every other path, two passes over the
  /// entries: pass 1 keeps the tuples whose groups can mark a pair, pass 2
  /// groups their holders by tuple (an inverted index tuple ->
  /// references); then every pair inside a group is marked. Without
  /// `dirty` a kept tuple is one two or more references
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
