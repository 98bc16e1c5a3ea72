// Join paths: walks in the schema graph, and their enumeration.
//
// Each join path starting at the reference relation induces a distinct
// similarity feature (paper §2.1). Enumeration visits every walk up to a
// length bound; immediate back-tracking over the same edge is deliberately
// allowed because it is how sibling tuples are reached (Publish ->
// Publications -> Publish is the coauthorship path).

#ifndef DISTINCT_RELATIONAL_JOIN_PATH_H_
#define DISTINCT_RELATIONAL_JOIN_PATH_H_

#include <string>
#include <vector>

#include "relational/schema_graph.h"

namespace distinct {

/// One traversal step: an edge and the direction it is walked.
struct JoinStep {
  int edge_id = -1;
  bool forward = true;

  bool operator==(const JoinStep& other) const {
    return edge_id == other.edge_id && forward == other.forward;
  }
};

/// A walk from `start_node` through `steps`.
struct JoinPath {
  int start_node = -1;
  std::vector<JoinStep> steps;

  int length() const { return static_cast<int>(steps.size()); }

  /// Node reached after walking every step.
  int EndNode(const SchemaGraph& graph) const;

  /// Node at every level of the walk: length() + 1 entries, the first
  /// start_node and the last EndNode(). One allocation.
  std::vector<int> LevelNodes(const SchemaGraph& graph) const;

  /// Human-readable form, e.g.
  /// "Publish -paper-> Publications <-paper- Publish -author-> Authors".
  std::string Describe(const SchemaGraph& graph) const;

  bool operator==(const JoinPath& other) const {
    return start_node == other.start_node && steps == other.steps;
  }
};

/// Controls for EnumerateJoinPaths.
struct PathEnumerationOptions {
  /// Maximum number of steps per path (inclusive).
  int max_length = 4;
  /// First steps to skip, e.g. the reference's own name edge — every
  /// resembling reference trivially shares that neighbor.
  std::vector<JoinStep> forbidden_first_steps;
};

/// All walks from `start_node` of length 1..max_length, in deterministic
/// (BFS-by-length, edge-ordered) order.
std::vector<JoinPath> EnumerateJoinPaths(const SchemaGraph& graph,
                                         int start_node,
                                         const PathEnumerationOptions& options);

}  // namespace distinct

#endif  // DISTINCT_RELATIONAL_JOIN_PATH_H_
