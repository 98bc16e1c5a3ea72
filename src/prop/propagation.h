// Probability propagation along join paths (paper §2.2).
//
// Starting at a reference's tuple with probability 1, each step splits the
// mass uniformly over the tuples joinable along the next path step. The
// same depth-first traversal accumulates both Prob_P(r -> t) (forward) and
// Prob_P(t -> r) (reverse): for a path instance r = t0, t1, ..., tk,
//   forward = Π_i 1 / fanout(t_{i-1} along step i)
//   reverse = Π_i 1 / fanout(t_i against step i)
// and multiple instances ending at the same tuple sum.

#ifndef DISTINCT_PROP_PROPAGATION_H_
#define DISTINCT_PROP_PROPAGATION_H_

#include <cstdint>

#include "prop/link_graph.h"
#include "prop/profile.h"
#include "relational/join_path.h"

namespace distinct {

/// How profiles are computed. Both produce the same probabilities up to
/// floating-point summation order. kWorkspace is the production engine;
/// kDepthFirst is its budget fallback and the oracle tests compare it
/// against.
enum class PropagationAlgorithm {
  /// Depth-first enumeration of path instances (the paper's Fig. 3
  /// procedure). Cost grows with the number of instances.
  kDepthFirst,
  /// Level-wise sweeps over epoch-stamped dense scratch arrays (no
  /// per-tuple hashing or allocation) with per-path-suffix memoization
  /// shared across references — see prop/workspace.h. Cost grows with the
  /// number of distinct (level, tuple) pairs — much cheaper than
  /// kDepthFirst on paths that fan out and reconverge (e.g. Publish ->
  /// Publications -> Publish -> Authors -> Publish). The default.
  kWorkspace,
};

/// Limits for one propagation.
struct PropagationOptions {
  PropagationAlgorithm algorithm = PropagationAlgorithm::kWorkspace;

  /// Cap on visited path instances. kDepthFirst truncates the traversal
  /// beyond it and flags the profile; kWorkspace is budget-free, so it
  /// counts complete instances and reruns the profile depth-first when the
  /// count exceeds the cap — truncation semantics are identical across
  /// algorithms. Guards against pathological fanouts.
  int64_t max_instances = 5'000'000;

  /// Byte budget of the shared subtree memo (kWorkspace only; see
  /// SubtreeCache). 0 disables memo storage without changing results.
  size_t cache_bytes = 64ull << 20;

  /// Prune walks that revisit the origin tuple. Without this, every path of
  /// the form Publish -> Publications -> Publish(origin) -> Authors reaches
  /// the reference's own name tuple — a neighbor that *all* identically
  /// named references share by construction, which is pure noise for
  /// disambiguation yet looks like a perfect signal on the rare-name
  /// training set.
  bool exclude_start_tuple = true;
};

class PropagationWorkspace;
class SubtreeCache;
struct PathProfile;
struct PathShape;

/// Computes neighbor profiles. Borrows the link graph, which must outlive
/// the engine. Stateless and safe to share across threads.
class PropagationEngine {
 public:
  explicit PropagationEngine(const LinkGraph& link) : link_(&link) {}

  const LinkGraph& link() const { return *link_; }

  /// Profile of `start_tuple` (a row of `path.start_node`'s table) along
  /// `path`. With kWorkspace this allocates a transient workspace; hot
  /// callers should use the overload below.
  NeighborProfile Compute(const JoinPath& path, int32_t start_tuple,
                          const PropagationOptions& options = {}) const;

  /// Same, reusing caller-owned dense scratch (kWorkspace only; other
  /// algorithms ignore it). `workspace` must wrap this engine's link graph
  /// and be used by one thread at a time. `cache`, when non-null, memoizes
  /// path suffixes under `cache_path_id` (the caller's stable index of
  /// `path`) and may be shared across threads and workspaces.
  NeighborProfile Compute(const JoinPath& path, int32_t start_tuple,
                          const PropagationOptions& options,
                          PropagationWorkspace& workspace,
                          SubtreeCache* cache = nullptr,
                          int cache_path_id = 0) const;

  /// The call behind both Compute overloads and ProfileStore::Build and
  /// Update, with `path`'s constants computed once by the caller
  /// (ShapePath(path, link().schema(), options.exclude_start_tuple)).
  /// With kWorkspace (`workspace` required) a single-hub junction frontier
  /// comes back as a hub slice; over the instance budget, or with
  /// kDepthFirst, the profile comes back explicit from the depth-first
  /// walker.
  PathProfile ComputeSlice(const JoinPath& path, const PathShape& shape,
                           int32_t start_tuple,
                           const PropagationOptions& options,
                           PropagationWorkspace* workspace,
                           SubtreeCache* cache, int cache_path_id) const;

 private:
  const LinkGraph* link_;
};

}  // namespace distinct

#endif  // DISTINCT_PROP_PROPAGATION_H_
