#include "sim/profile_arena.h"

#include <limits>

#include "common/logging.h"

namespace distinct {

namespace {

/// The u32 offset packing caps a path slab at 2^32-1 entries.
constexpr size_t kMaxPathEntries =
    std::numeric_limits<uint32_t>::max();

/// Appends one profile's entries to the entry arrays of `path`.
void AppendProfile(const NeighborProfile& profile, ProfileArena::Path& path) {
  for (const ProfileEntry& entry : profile.entries()) {
    path.tuples.push_back(entry.tuple);
    path.forward.push_back(entry.forward);
    path.reverse.push_back(entry.reverse);
  }
}

/// Lays out one path slab of `num_refs` slices in reference order:
/// `size_of(r)` is slice r's entry count, `append_slice(r, path)` appends
/// its entries.
template <typename SizeOf, typename AppendSlice>
ProfileArena::Path BuildPath(size_t num_refs, const SizeOf& size_of,
                             const AppendSlice& append_slice) {
  ProfileArena::Path path;
  path.offsets.resize(num_refs + 1);
  size_t total = 0;
  for (size_t r = 0; r < num_refs; ++r) {
    total += size_of(r);
  }
  DISTINCT_CHECK(total <= kMaxPathEntries);
  path.tuples.reserve(total);
  path.forward.reserve(total);
  path.reverse.reserve(total);
  for (size_t r = 0; r < num_refs; ++r) {
    path.offsets[r] = static_cast<uint32_t>(path.tuples.size());
    append_slice(r, path);
  }
  path.offsets[num_refs] = static_cast<uint32_t>(path.tuples.size());
  return path;
}

/// Flattens path `p` of the per-reference profile vectors `profiles_of(r)`.
template <typename ProfilesOf>
ProfileArena::Path FlattenPath(size_t num_refs, size_t p,
                               const ProfilesOf& profiles_of) {
  return BuildPath(
      num_refs, [&](size_t r) { return profiles_of(r)[p].size(); },
      [&](size_t r, ProfileArena::Path& path) {
        AppendProfile(profiles_of(r)[p], path);
      });
}

}  // namespace

int64_t ProfileArena::FlattenedBytes() const {
  size_t bytes = paths_.capacity() * sizeof(Path);
  for (const Path& path : paths_) {
    bytes += path.offsets.capacity() * sizeof(uint32_t);
    bytes += path.tuples.capacity() * sizeof(int32_t);
    bytes += (path.forward.capacity() + path.reverse.capacity()) *
             sizeof(double);
  }
  return static_cast<int64_t>(bytes);
}

ProfileArena ProfileArena::FromStore(const ProfileStore& store) {
  ProfileArena arena;
  arena.num_refs_ = store.num_refs();
  arena.paths_.reserve(store.num_paths());
  for (size_t p = 0; p < store.num_paths(); ++p) {
    arena.paths_.push_back(FlattenPath(
        store.num_refs(), p,
        [&store](size_t r) -> const std::vector<NeighborProfile>& {
          return store.profiles(r);
        }));
  }
  arena.tracked_.Set(arena.FlattenedBytes());
  return arena;
}

void ProfileArena::PatchFromStore(
    const ProfileStore& store, const std::vector<size_t>& changed_positions) {
  DISTINCT_CHECK(paths_.size() == store.num_paths());
  DISTINCT_CHECK(num_refs_ <= store.num_refs());
  const size_t new_num_refs = store.num_refs();
  std::vector<char> is_changed(new_num_refs, 0);
  for (const size_t position : changed_positions) {
    DISTINCT_CHECK(position < new_num_refs);
    is_changed[position] = 1;
  }
  for (size_t r = num_refs_; r < new_num_refs; ++r) {
    is_changed[r] = 1;  // appended references always need flattening
  }

  for (size_t p = 0; p < paths_.size(); ++p) {
    const Path& old_path = paths_[p];
    paths_[p] = BuildPath(
        new_num_refs,
        [&](size_t r) {
          return is_changed[r] ? store.profiles(r)[p].size()
                               : old_path.size(r);
        },
        [&](size_t r, Path& next) {
          if (is_changed[r]) {
            AppendProfile(store.profiles(r)[p], next);
            return;
          }
          // Unchanged profile: its slice is copied verbatim.
          const size_t begin = old_path.offsets[r];
          const size_t end = old_path.offsets[r + 1];
          next.tuples.insert(next.tuples.end(),
                             old_path.tuples.begin() + begin,
                             old_path.tuples.begin() + end);
          next.forward.insert(next.forward.end(),
                              old_path.forward.begin() + begin,
                              old_path.forward.begin() + end);
          next.reverse.insert(next.reverse.end(),
                              old_path.reverse.begin() + begin,
                              old_path.reverse.begin() + end);
        });
  }
  num_refs_ = new_num_refs;
  tracked_.Set(FlattenedBytes());
}

ProfileArena ProfileArena::FromProfiles(
    const std::vector<std::vector<NeighborProfile>>& profiles) {
  ProfileArena arena;
  arena.num_refs_ = profiles.size();
  const size_t num_paths = profiles.empty() ? 0 : profiles.front().size();
  for (const std::vector<NeighborProfile>& per_ref : profiles) {
    DISTINCT_CHECK(per_ref.size() == num_paths);
  }
  arena.paths_.reserve(num_paths);
  for (size_t p = 0; p < num_paths; ++p) {
    arena.paths_.push_back(FlattenPath(
        profiles.size(), p,
        [&profiles](size_t r) -> const std::vector<NeighborProfile>& {
          return profiles[r];
        }));
  }
  arena.tracked_.Set(arena.FlattenedBytes());
  return arena;
}

size_t ProfileArena::num_entries() const {
  size_t total = 0;
  for (const Path& path : paths_) {
    total += path.tuples.size();
  }
  return total;
}

}  // namespace distinct
