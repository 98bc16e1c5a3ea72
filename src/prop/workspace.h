// Level-wise scratch-slab propagation with shared subtree memoization — the
// PropagationAlgorithm::kWorkspace engine.
//
// The DFS engine in propagation.cc pushes every tuple through an
// unordered_map and re-walks identical subtrees for every reference (all
// co-authors of one paper traverse the same Paper -> Conference subtree
// once per reference). This layer removes both costs:
//
//  * PropagationWorkspace owns reusable scratch slabs per schema node: a
//    4-byte slot per tuple of LinkGraph::NumTuples, and a cell (tuple,
//    masses, instance count) per touched tuple in first-touch order. A
//    slot names its tuple's cell only when that cell holds the tuple, so
//    clearing a slab empties its cells and leaves the slots stale. Sweeps
//    read a frontier's cells in sequence, with no hashing. A forward step
//    (many rows may reach one target) accumulates through the slot index
//    with Add; a reverse step, which reaches each row once, and the merge
//    of hub suffixes that share no tuple push cells with Append and never
//    touch it. A frontier is sorted only when its cells are out of order.
//    A workspace belongs to one thread at a time and is recycled across
//    references.
//
//  * SubtreeCache memoizes, per join path, the distribution emanating from
//    a junction tuple down the path's suffix. The junction (see
//    SubtreeJunctionLevel) is the path's *hub*: the tuple a reference
//    reaches through many-to-one steps only, so the references of every
//    paper in one proceedings share the suffix that starts there. No level
//    strictly inside the suffix is on the start node, so origin exclusion
//    cannot prune inside it; a last level on the start node is handled by
//    dropping the origin's entry while merging. The distribution is thus
//    independent of the reference being propagated — it is computed once
//    per name-resolution run and shared across references and worker
//    threads. The cache is size-bounded with per-shard FIFO eviction and
//    safe for concurrent use.
//
//  * A reference whose junction frontier is a single hub tuple (every path
//    whose prefix is forward steps only) gets a HubSlice: a pointer to the
//    hub's immutable suffix plus the two prefix scales, which the pair fill
//    reads in place. Only a frontier of several hubs is summed into
//    explicit entries.
//
// Determinism: every sweep iterates frontiers in ascending tuple id and
// merges memoized suffixes in ascending junction-tuple order, and a cache
// hit returns exactly the value a miss would recompute, so profiles are
// bit-identical regardless of cache capacity, hit/miss pattern, or thread
// count. Specializing a step by direction changes no bit: a division by a
// fan-out of 1 is the identity, Append's 0.0 + x is a first Add, and a
// skipped sort leaves the cells in the one order a sort gives distinct
// tuples.

#ifndef DISTINCT_PROP_WORKSPACE_H_
#define DISTINCT_PROP_WORKSPACE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "obs/memory.h"
#include "prop/link_graph.h"
#include "prop/profile.h"
#include "relational/join_path.h"

namespace distinct {

struct PropagationOptions;

/// Per-thread scratch space for one LinkGraph. Not thread-safe; hand each
/// worker its own (ProfileStore::Build keeps a free-list). The slot index
/// and the cell capacity of every slab it allocates count toward the
/// kPropagationWorkspace memory gauge for the workspace's lifetime.
class PropagationWorkspace {
 public:
  /// One sparse distribution over a node's tuple universe: forward mass,
  /// reverse mass and path-instance count per touched tuple, held in a
  /// cell per tuple in first-touch order.
  class Slab {
   public:
    struct Cell {
      int32_t tuple;
      double forward, reverse, count;
    };

    /// Accumulates into `tuple`'s cell, appending a zeroed one on the
    /// tuple's first touch since Acquire. A slot left from an earlier use
    /// names a cell only when it is in range and that cell holds `tuple`.
    void Add(int32_t tuple, double forward, double reverse, double count) {
      uint32_t& slot = slot_[static_cast<size_t>(tuple)];
      if (slot >= cells_.size() || cells_[slot].tuple != tuple) {
        slot = static_cast<uint32_t>(cells_.size());
        cells_.push_back(Cell{tuple, 0.0, 0.0, 0.0});
      }
      Cell& cell = cells_[slot];
      cell.forward += forward;
      cell.reverse += reverse;
      cell.count += count;
    }

    /// Appends a cell for `tuple`, which no Add or Append has touched since
    /// Acquire, holding what a first-touch Add would: each field is
    /// 0.0 + its input (so a -0.0 input reads +0.0). Neither reads nor
    /// writes the tuple's slot, so no Add of the tuple may follow. For
    /// callers that reach each tuple at most once: a reverse step, whose
    /// rows each have one forward target, and a merge of hub suffixes that
    /// share no tuple.
    void Append(int32_t tuple, double forward, double reverse, double count) {
      DISTINCT_DCHECK(slot_[static_cast<size_t>(tuple)] >= cells_.size() ||
                      cells_[slot_[static_cast<size_t>(tuple)]].tuple !=
                          tuple);
      cells_.push_back(Cell{tuple, 0.0 + forward, 0.0 + reverse, 0.0 + count});
    }

    /// The touched tuples' cells, in ascending tuple id after Sort().
    const std::vector<Cell>& cells() const { return cells_; }

    /// Orders the cells by tuple id, as every sweep does before reading a
    /// frontier, so accumulation order is reproducible. The tuples are
    /// distinct, so cells already ascending are left as they are, which is
    /// where a sort would put them. Slots then no longer name their cells:
    /// no Add may follow until the next Acquire.
    void Sort() {
      if (!std::ranges::is_sorted(cells_, {}, &Cell::tuple)) {
        std::ranges::sort(cells_, {}, &Cell::tuple);
      }
    }

   private:
    friend class PropagationWorkspace;

    std::vector<uint32_t> slot_;  // per tuple: the index of its cell
    std::vector<Cell> cells_;
    size_t counted_cells_ = 0;  // cell capacity already in the gauge
    bool in_use_ = false;
  };

  explicit PropagationWorkspace(const LinkGraph& link) : link_(&link) {}

  PropagationWorkspace(PropagationWorkspace&&) = default;
  PropagationWorkspace& operator=(PropagationWorkspace&&) = default;
  PropagationWorkspace(const PropagationWorkspace&) = delete;
  PropagationWorkspace& operator=(const PropagationWorkspace&) = delete;

  const LinkGraph& link() const { return *link_; }

  /// An empty slab over `node_id`'s universe. Several slabs of one node can
  /// be live at once (a path that holds its junction frontier while it
  /// sweeps the suffix may meet the junction's node again below it); slabs
  /// are allocated only when a node needs one more, then recycled.
  Slab& Acquire(int node_id);

  /// Returns a slab to the free pool and counts its cells' growth in the
  /// gauge. Its contents stay readable until the next Acquire of the slab.
  void Release(Slab& slab) {
    slab.in_use_ = false;
    if (const size_t grown = slab.cells_.capacity() - slab.counted_cells_) {
      tracked_.Set(tracked_.bytes() +
                   static_cast<int64_t>(grown * sizeof(Slab::Cell)));
      slab.counted_cells_ += grown;
    }
  }

 private:
  const LinkGraph* link_;
  /// slabs_[node] = every slab ever needed for that node (usually one).
  std::vector<std::vector<std::unique_ptr<Slab>>> slabs_;
  obs::TrackedBytes tracked_{obs::MemoryTracker::kPropagationWorkspace};
};

/// Distribution of one path suffix from one junction tuple, as parallel
/// arrays in ascending tuple id — the layout of a ProfileStore slab, so a
/// hub slice (below) reads it in place. Per end tuple: the suffix-forward
/// and suffix-reverse mass reaching it from the junction tuple, and the
/// number of suffix walks ending there (exact below 2^53) — what origin
/// exclusion takes out of the instance budget when it is the origin.
struct SubtreeDistribution {
  std::vector<int32_t> tuples;
  std::vector<double> forward;
  std::vector<double> reverse;
  std::vector<double> walks;
  /// Complete suffix walks, the sum of `walks` (for the instance budget);
  /// exact below 2^53.
  double instances = 0.0;

  size_t size() const { return tuples.size(); }

  void Append(int32_t tuple, double forward_mass, double reverse_mass,
              double walk_count) {
    tuples.push_back(tuple);
    forward.push_back(forward_mass);
    reverse.push_back(reverse_mass);
    walks.push_back(walk_count);
  }

  void ShrinkToFit() {
    tuples.shrink_to_fit();
    forward.shrink_to_fit();
    reverse.shrink_to_fit();
    walks.shrink_to_fit();
  }

  size_t ByteSize() const {
    return sizeof(SubtreeDistribution) +
           tuples.capacity() * sizeof(int32_t) +
           (forward.capacity() + reverse.capacity() + walks.capacity()) *
               sizeof(double);
  }
};

/// A (reference, path) profile whose junction frontier is one hub tuple:
/// the hub's memoized suffix, scaled by the prefix mass that reaches the
/// hub, read in place instead of copied. Entry e is
/// {suffix->tuples[e], forward * suffix->forward[e],
///  reverse * suffix->reverse[e]} for every e except `skip`, the origin's
/// entry that a path ending on the start node drops (`skip` ==
/// suffix->size() when nothing is dropped). Each product is the one the
/// expanded profile holds, so both read the same bits.
struct HubSlice {
  std::shared_ptr<const SubtreeDistribution> suffix;
  /// The junction tuple. Equal hubs hold equal suffixes, though not always
  /// the same copy: with the memo's storage off or a suffix too large for
  /// a shard, each reference pins its own.
  int32_t hub = -1;
  uint32_t skip = 0;
  double forward = 0.0;  // prefix Prob(r -> hub)
  double reverse = 0.0;  // prefix Prob(hub -> r)
};

/// The explicit, ascending entries of `slice` — the one place a hub slice
/// is turned back into a profile (PropagationEngine::Compute, training's
/// profiles, the test oracles).
NeighborProfile ExpandHubSlice(const HubSlice& slice);

/// One reference's profile along one path as the dense engine returns it:
/// a hub slice when `hub.suffix` is set, else the explicit `entries`.
struct PathProfile {
  NeighborProfile entries;
  HubSlice hub;

  bool is_hub() const { return hub.suffix != nullptr; }
};

/// `profile`'s explicit entries: its own, or its hub slice expanded.
NeighborProfile ExpandProfile(PathProfile profile);

/// Counters of one SubtreeCache (cumulative since construction).
struct SubtreeCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;  // evicted or rejected-at-insert entries
  int64_t entries = 0;    // currently resident
  int64_t bytes = 0;      // currently resident
};

/// Size-bounded concurrent memo of subtree distributions, keyed by
/// (path id, junction tuple). Sharded: lookups touch one mutex; values are
/// shared_ptrs so an entry being merged from stays alive across eviction.
/// Also feeds the prop.memo_* counters of the global MetricsRegistry.
class SubtreeCache {
 public:
  /// `capacity_bytes` bounds resident entry payload; 0 disables storage
  /// entirely (every lookup misses, inserts are dropped) while keeping
  /// results bit-identical.
  explicit SubtreeCache(size_t capacity_bytes);

  /// Releases the resident payload from the kSubtreeCache byte gauge.
  ~SubtreeCache();

  /// The memoized distribution, or nullptr on miss.
  std::shared_ptr<const SubtreeDistribution> Find(int path_id, int32_t tuple);

  /// Stores `dist` (evicting FIFO-oldest entries of the shard to fit) and
  /// returns the resident copy — the previously inserted one when another
  /// thread won the race (values are identical by construction). With
  /// capacity 0, or a suffix larger than a shard, returns a copy it does
  /// not store; a hub slice keeps that copy alive.
  std::shared_ptr<const SubtreeDistribution> Insert(int path_id,
                                                    int32_t tuple,
                                                    SubtreeDistribution dist);

  /// Drops the entries of `path_id` keyed by `tuples` (the delta path's
  /// targeted invalidation: only suffixes touching changed tuples go),
  /// together with their places in the eviction order — a re-inserted key
  /// queues as the newest. Returns how many entries were resident and
  /// removed.
  int64_t Erase(int path_id, const std::vector<int32_t>& tuples);

  SubtreeCacheStats stats() const;

 private:
  static constexpr size_t kNumShards = 16;

  struct Slot {
    std::shared_ptr<const SubtreeDistribution> value;
    std::list<uint64_t>::iterator queued;  // this key's place in `fifo`
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<uint64_t, Slot> map;
    std::list<uint64_t> fifo;  // resident keys, oldest first
    size_t bytes = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
  };

  static uint64_t Key(int path_id, int32_t tuple) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(path_id)) << 32) |
           static_cast<uint32_t>(tuple);
  }
  Shard& ShardOf(uint64_t key) {
    // Mix so consecutive tuple ids spread across shards.
    uint64_t h = key * 0x9e3779b97f4a7c15ull;
    return shards_[(h >> 60) & (kNumShards - 1)];
  }

  size_t capacity_bytes_;
  size_t shard_capacity_;
  std::array<Shard, kNumShards> shards_;
};

/// Upper bound on what one PropagationWorkspace over `link` allocates
/// propagating along `paths`: per schema node, the most slabs one
/// propagation holds at once (from each path's PathShape), each with its
/// slot index and cells for the largest frontier the steps' fan-outs allow.
/// The sharded scan divides a memory budget by it to cap its workers.
size_t ApproxWorkspaceBytes(const LinkGraph& link,
                            const std::vector<JoinPath>& paths,
                            bool exclude_start_tuple);

/// Level where `path`'s reference-dependent prefix ends: the memo key's
/// level. With origin exclusion, walks can be pruned at every level whose
/// schema node is the start node, so the walk starts at the deepest such
/// level strictly inside the path (level 0 when there is none, and always
/// when exclusion is off). It then advances over forward steps — FK or
/// promoted-attribute steps, many-to-one, so they never widen the frontier
/// — to the hub, e.g. Publish -> Publications -> Proceedings is keyed by
/// proceedings. Clamped to [1, path length]; the path length means the
/// path has no memoizable suffix. A last level on the start node stays in
/// the suffix: PropagateDense drops the origin's entry when merging.
size_t SubtreeJunctionLevel(const JoinPath& path,
                            const std::vector<int>& node_at,
                            bool exclude_start_tuple);

/// What propagating along a path needs besides its steps. It depends on
/// the path and the options alone, so ProfileStore::Build computes it
/// once per path, not once per reference.
struct PathShape {
  std::vector<int> node_at;  // schema node of every level
  size_t junction = 0;       // SubtreeJunctionLevel
  /// A memoizable suffix of reverse steps only. Each end tuple then has
  /// exactly one way back to its hub (every step back is the one FK or
  /// attribute value of a row), so the suffixes of different hubs share
  /// no tuple. PropagateDense's multi-hub merge relies on it to append
  /// each hub's entries instead of accumulating them, and the profile
  /// store to mark candidate pairs hub by hub.
  bool reverse_suffix = false;
};

PathShape ShapePath(const JoinPath& path, const SchemaGraph& schema,
                    bool exclude_start_tuple);

/// Scratch-slab propagation (the kWorkspace engine) along `path`, whose
/// constants `shape` holds. Memoizes path suffixes through `cache` when
/// non-null, keyed by `cache_path_id` (the caller's stable index of
/// `path`; pass 0 when cache is null). When the junction frontier is a
/// single hub tuple, the result is a hub slice over that tuple's suffix;
/// otherwise the suffixes are summed into explicit entries. Returns
/// nullopt when the number of complete path instances exceeds
/// options.max_instances — the caller falls back to the depth-first engine
/// so truncation semantics stay identical across algorithms.
std::optional<PathProfile> PropagateDense(
    const LinkGraph& link, const JoinPath& path, int32_t start_tuple,
    const PropagationOptions& options, const PathShape& shape,
    PropagationWorkspace& workspace, SubtreeCache* cache, int cache_path_id);

}  // namespace distinct

#endif  // DISTINCT_PROP_WORKSPACE_H_
