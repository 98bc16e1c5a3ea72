// Neighbor profiles: the result of probability propagation.
//
// A profile for reference `r` and join path `P` is the sparse map
// t -> (Prob_P(r -> t), Prob_P(t -> r)) over the neighbor tuples NB_P(r)
// (paper §2.2, Fig. 3). Entries are sorted by tuple id so similarity
// computations are linear merges.

#ifndef DISTINCT_PROP_PROFILE_H_
#define DISTINCT_PROP_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace distinct {

/// One neighbor tuple with both connection strengths.
struct ProfileEntry {
  int32_t tuple = -1;
  double forward = 0.0;  // Prob_P(r -> tuple)
  double reverse = 0.0;  // Prob_P(tuple -> r)
};

/// Sparse, tuple-sorted neighbor profile.
class NeighborProfile {
 public:
  NeighborProfile() = default;

  /// Takes entries in any order; sorts them unless they already ascend (the
  /// dense engine's output always does). Duplicate tuples are not allowed
  /// (propagation accumulates before constructing).
  explicit NeighborProfile(std::vector<ProfileEntry> entries);

  const std::vector<ProfileEntry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  /// Sum of forward probabilities; 1.0 when no probability was lost to NULL
  /// foreign keys or truncation.
  double ForwardSum() const;

  /// Forward probability of `tuple`, 0 when absent. Binary search.
  double ForwardOf(int32_t tuple) const;

  /// True when propagation hit the instance cap and the profile is partial.
  bool truncated() const { return truncated_; }
  void set_truncated(bool truncated) { truncated_ = truncated; }

 private:
  std::vector<ProfileEntry> entries_;
  bool truncated_ = false;
};

}  // namespace distinct

#endif  // DISTINCT_PROP_PROFILE_H_
