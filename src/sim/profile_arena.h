// Flat structure-of-arrays profile arena — the similarity inputs of
// §2.3/§2.4 re-laid-out for the fused sparse pair kernel.
//
// ProfileStore keeps each (reference, path) profile as its own
// NeighborProfile (an array-of-structs vector), so the O(n^2) pair phase
// chases n·P separate heap blocks and loads a 24-byte ProfileEntry to read
// one double. The arena flattens every path's profiles into one contiguous
// CSR block — tuple[], forward[], reverse[] plus per-reference offsets —
// so merge-joins stream over adjacent same-typed memory. The arena holds
// only what the fused fill of fused_kernel.h reads.

#ifndef DISTINCT_SIM_PROFILE_ARENA_H_
#define DISTINCT_SIM_PROFILE_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/memory.h"
#include "prop/profile.h"
#include "sim/profile_store.h"

namespace distinct {

/// Read-only flattened profiles: one CSR slab per join path.
class ProfileArena {
 public:
  /// One path's profiles, concatenated in reference order. The slice of
  /// reference i is [offsets[i], offsets[i + 1]); tuples are strictly
  /// increasing within a slice (NeighborProfile guarantees sorted,
  /// duplicate-free entries).
  ///
  /// Offsets are packed to uint32_t — half the index bytes of the size_t
  /// they replaced, so the offset table of a mega-name stays in cache
  /// while the merge-joins stream the entry arrays. A path is capped at
  /// 2^32-1 entries (checked at build time); at 20 bytes per entry that
  /// is an ~80 GiB slab, far past the per-shard memory budget.
  struct Path {
    std::vector<uint32_t> offsets;  // num_refs + 1 entries
    std::vector<int32_t> tuples;
    std::vector<double> forward;   // Prob_P(r -> tuple)
    std::vector<double> reverse;   // Prob_P(tuple -> r)

    size_t size(size_t ref) const {
      return offsets[ref + 1] - offsets[ref];
    }
  };

  /// Flattens a built store. O(total entries); no profile values change.
  static ProfileArena FromStore(const ProfileStore& store);

  /// Splice-update counterpart of ProfileStore::Update: re-flattens only
  /// the slices of `changed_positions` (and of references the store
  /// appended past this arena's num_refs()) from `store`, copying every
  /// other slice verbatim. The arena must have been built from the same
  /// store lineage (same path count, no reordering of the common prefix).
  /// Result is bit-identical to FromStore(store).
  void PatchFromStore(const ProfileStore& store,
                      const std::vector<size_t>& changed_positions);

  /// Flattens raw per-reference profile vectors (profiles[ref][path]) —
  /// the test seam: differential suites build arenas without an engine.
  /// Every inner vector must have the same number of paths.
  static ProfileArena FromProfiles(
      const std::vector<std::vector<NeighborProfile>>& profiles);

  size_t num_refs() const { return num_refs_; }
  size_t num_paths() const { return paths_.size(); }
  const Path& path(size_t p) const { return paths_[p]; }

  /// Total flattened entries across all paths (diagnostics).
  size_t num_entries() const;

 private:
  ProfileArena() : tracked_(obs::MemoryTracker::kProfileArena) {}

  /// Capacity bytes of every slab vector, for the kProfileArena gauge.
  int64_t FlattenedBytes() const;

  size_t num_refs_ = 0;
  std::vector<Path> paths_;
  obs::TrackedBytes tracked_;  // kProfileArena gauge (obs/memory.h)
};

}  // namespace distinct

#endif  // DISTINCT_SIM_PROFILE_ARENA_H_
