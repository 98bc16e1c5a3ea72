// Tuple-level adjacency derived from a schema graph.
//
// For every schema edge this materializes both traversal directions:
// forward (FK cell -> referenced tuple, or promoted cell -> value tuple) and
// reverse (referenced tuple -> referencing rows, as CSR). Probability
// propagation walks these adjacencies; fanouts are span sizes.
//
// Tuples are addressed per node: row index for table nodes, dense value id
// for attribute nodes.

#ifndef DISTINCT_PROP_LINK_GRAPH_H_
#define DISTINCT_PROP_LINK_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/join_path.h"
#include "relational/schema_graph.h"

namespace distinct {

/// Tuple-level adjacency, extended only by appends. Borrows the SchemaGraph
/// (and through it the Database); both must outlive the LinkGraph. There is
/// one construction path: Build() is an empty graph plus ApplyAppend() from
/// row 0, and Distinct::ApplyDelta() runs the same ApplyAppend() from the
/// pre-append row counts, so a graph extended by appends is bit-identical
/// to one built over the grown database.
class LinkGraph {
 public:
  /// Materializes adjacency for every edge of `graph`. Fails on dangling
  /// foreign keys.
  static StatusOr<LinkGraph> Build(const SchemaGraph& graph);

  /// Extends the adjacency in place to cover rows appended to the database
  /// since Build()/the last ApplyAppend(). Existing tuple ids are stable:
  /// table tuples are row indices (append-only), and attribute value ids
  /// are assigned in first-seen row order, so replaying the assignment
  /// over the grown columns reproduces every old id and appends new values
  /// after them. Reverse CSRs are rebuilt whole by an ascending-row
  /// counting sort. Returns FailedPrecondition on a dangling FK among the
  /// new rows — validate appended rows first; after an error the graph
  /// must be rebuilt.
  Status ApplyAppend();

  const SchemaGraph& schema() const { return *schema_; }

  /// Number of tuples in `node_id`'s universe (rows, or distinct values).
  int64_t NumTuples(int node_id) const;

  /// Tuples reached from `tuple` walking `edge_id` forward
  /// (from_node -> to_node). Zero or one element for FK/attribute edges.
  std::span<const int32_t> Forward(int edge_id, int32_t tuple) const;

  /// Tuples reached walking `edge_id` in reverse (to_node -> from_node).
  std::span<const int32_t> Reverse(int edge_id, int32_t tuple) const;

  /// Neighbors of `tuple` at `at_node` along `step`.
  std::span<const int32_t> Neighbors(const JoinStep& step,
                                     int32_t tuple) const {
    return step.forward ? Forward(step.edge_id, tuple)
                        : Reverse(step.edge_id, tuple);
  }

  /// Fanout in the direction opposite to `step`, evaluated at the tuple the
  /// step arrived at; this is the denominator of the reverse probability.
  int64_t ReverseFanout(const JoinStep& step, int32_t arrived_tuple) const {
    return step.forward ? Reverse(step.edge_id, arrived_tuple).size()
                        : Forward(step.edge_id, arrived_tuple).size();
  }

  /// Human-readable label for a tuple: primary cells for table rows, the
  /// value for attribute tuples. For diagnostics and visualization.
  std::string TupleLabel(int node_id, int32_t tuple) const;

 private:
  struct EdgeAdjacency {
    // forward_target[row] = target tuple or -1 for NULL.
    std::vector<int32_t> forward_target;
    // Reverse CSR over the to-node universe.
    std::vector<int64_t> reverse_offsets;
    std::vector<int32_t> reverse_items;
  };

  explicit LinkGraph(const SchemaGraph& graph) : schema_(&graph) {}

  const SchemaGraph* schema_;
  std::vector<EdgeAdjacency> edges_;
  /// Attribute-node universes: for node id n (attribute), the raw cell value
  /// of each dense value id, parallel to the universe.
  std::vector<std::vector<int64_t>> attribute_values_;  // indexed by node id
  std::vector<int64_t> num_tuples_;                     // indexed by node id
};

}  // namespace distinct

#endif  // DISTINCT_PROP_LINK_GRAPH_H_
