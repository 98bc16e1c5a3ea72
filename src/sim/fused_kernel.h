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
// attribute every reference reaches) makes every pair a candidate.

#ifndef DISTINCT_SIM_FUSED_KERNEL_H_
#define DISTINCT_SIM_FUSED_KERNEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/feature_vector.h"
#include "sim/profile_arena.h"

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
inline FusedPathFeatures FusedMergeJoin(const ProfileArena::Path& path,
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

/// All-path features of pair (i, j) — the fused drop-in for
/// ProfileStore::Features / ComputePairFeatures (testing seam).
PairFeatures FusedFeatures(const ProfileArena& arena, size_t i, size_t j);

/// How CandidateSet::Build marks the pairs of one path: pairwise within
/// tuple groups (cost ~ shared-tuple incidences — right for sparse
/// overlap), or bitset rows with word-parallel OR (cost ~ entries·n/64 +
/// n²/64 — right for dense names, where hub tuples make the per-group
/// pairwise marking quadratic). Both produce the identical bit set; the
/// thresholds only pick which machine fills it.
struct CandidateBuildOptions {
  /// Bitset rows need at least this many references before the word ops
  /// amortize (below it the triangle fits in a handful of words anyway).
  int bitset_min_refs = 64;
  /// Cost-model bias: the grouped marking costs ~ the sum of squared
  /// per-tuple posting counts (pairs within each group), the bitset path
  /// ~ (entries + n) · n/128 word operations — both computable from the
  /// counting pass's histogram before committing to either. The bitset
  /// path is taken when grouped-cost > bitset_cost_factor · bitset-cost;
  /// values above 1.0 bias toward the grouped marking, <= 0 forces the
  /// bitset path wherever bitset_min_refs and the scratch cap allow
  /// (differential tests and the bench pin both machines this way).
  double bitset_cost_factor = 1.0;
  /// Hard cap on the tuple->references bitmap scratch (words); a path
  /// whose distinct-tuple count would blow past it falls back to the
  /// grouped marking regardless of the cost model.
  size_t bitset_max_scratch_words = size_t{1} << 23;  // 64 MiB
};

/// The overlap-sparse candidate pairs, one lower-triangle bitset per join
/// path: bit b(i, j) = i(i-1)/2 + j of path P is set iff references i and
/// j share at least one neighbor tuple on P. Built from per-path inverted
/// indexes (tuple -> references) over the tuples two or more references
/// hold; cost is one pass over the path's entries plus the number of
/// (pair, shared tuple) incidences for sparse paths, or word-parallel for
/// dense ones (CandidateBuildOptions). A path on which no pair shares a
/// tuple keeps no bitset at all.
class CandidateSet {
 public:
  static CandidateSet Build(const ProfileArena& arena,
                            const CandidateBuildOptions& options = {});

  /// Candidate pairs restricted to cells with at least one endpoint marked
  /// in `dirty` (size num_refs). Exactly Build()'s bits on those cells;
  /// clean-clean pairs are never marked. Per tuple group the marking costs
  /// O(dirty_members x members) instead of O(members^2), which is what
  /// makes candidate skipping affordable for the partial refill after a
  /// delta (UpdatePairMatrices) — a full Build over a mega-name costs more
  /// than the joins it saves when only a few rows changed.
  static CandidateSet BuildPartial(const ProfileArena& arena,
                                   const std::vector<char>& dirty);

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

  /// Sizes one empty bitset per path; Build/BuildPartial allocate a path's
  /// bits only once it has entries to mark.
  void Init(const ProfileArena& arena);
  /// Drops all-zero path bitsets and counts the union.
  void Finish();

  size_t num_refs_ = 0;
  size_t words_ = 0;  // words per allocated path bitset
  int64_t count_ = 0;
  std::vector<std::vector<uint64_t>> path_bits_;
};

}  // namespace distinct

#endif  // DISTINCT_SIM_FUSED_KERNEL_H_
