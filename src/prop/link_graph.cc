#include "prop/link_graph.h"

#include <unordered_map>

#include "common/string_util.h"

namespace distinct {

StatusOr<LinkGraph> LinkGraph::Build(const SchemaGraph& graph) {
  // An empty graph, then every row appended from row 0.
  LinkGraph link(graph);
  link.num_tuples_.assign(static_cast<size_t>(graph.num_nodes()), 0);
  link.attribute_values_.resize(static_cast<size_t>(graph.num_nodes()));
  link.edges_.resize(static_cast<size_t>(graph.num_edges()));
  DISTINCT_RETURN_IF_ERROR(link.ApplyAppend());
  return link;
}

Status LinkGraph::ApplyAppend() {
  const SchemaGraph& graph = *schema_;
  const Database& db = graph.db();

  for (int n = 0; n < graph.num_nodes(); ++n) {
    const SchemaNode& node = graph.node(n);
    if (!node.is_attribute) {
      num_tuples_[static_cast<size_t>(n)] =
          db.table(node.table_id).num_rows();
    }
  }

  // Replay the first-seen value-id assignment over each full attribute
  // column. The map is seeded from attribute_values_ (which preserves id
  // order), so every old cell re-finds its old id and only values first
  // seen in appended rows extend the universe.
  std::vector<std::unordered_map<int64_t, int32_t>> value_ids(
      static_cast<size_t>(graph.num_nodes()));
  for (int n = 0; n < graph.num_nodes(); ++n) {
    const SchemaNode& node = graph.node(n);
    if (!node.is_attribute) {
      continue;
    }
    const Table& table = db.table(node.table_id);
    auto& ids = value_ids[static_cast<size_t>(n)];
    auto& values = attribute_values_[static_cast<size_t>(n)];
    ids.reserve(values.size());
    for (size_t v = 0; v < values.size(); ++v) {
      ids.emplace(values[v], static_cast<int32_t>(v));
    }
    for (int64_t row = 0; row < table.num_rows(); ++row) {
      const int64_t cell = table.raw(row, node.column);
      if (cell == kNullCell) {
        continue;
      }
      if (ids.emplace(cell, static_cast<int32_t>(values.size())).second) {
        values.push_back(cell);
      }
    }
    num_tuples_[static_cast<size_t>(n)] = static_cast<int64_t>(values.size());
  }

  for (int e = 0; e < graph.num_edges(); ++e) {
    const SchemaEdge& edge = graph.edge(e);
    const Table& from_table = db.table(edge.table_id);
    EdgeAdjacency& adjacency = edges_[static_cast<size_t>(e)];
    const int64_t old_rows =
        static_cast<int64_t>(adjacency.forward_target.size());
    const int64_t from_rows = from_table.num_rows();
    const int64_t to_tuples = num_tuples_[static_cast<size_t>(edge.to_node)];

    // Old forward targets are immutable (cells never change, primary keys
    // and value ids are stable); only new rows need resolving.
    adjacency.forward_target.resize(static_cast<size_t>(from_rows), -1);
    for (int64_t row = old_rows; row < from_rows; ++row) {
      const int64_t cell = from_table.raw(row, edge.column);
      if (cell == kNullCell) {
        continue;
      }
      int32_t target = -1;
      if (edge.is_attribute_edge) {
        target = value_ids[static_cast<size_t>(edge.to_node)].at(cell);
      } else {
        const Table& to_table = db.table(graph.node(edge.to_node).table_id);
        auto to_row = to_table.RowForPrimaryKey(cell);
        if (!to_row.ok()) {
          return FailedPreconditionError(StrFormat(
              "dangling FK: %s row %lld -> %lld",
              graph.edge(e).name.c_str(), static_cast<long long>(row),
              static_cast<long long>(cell)));
        }
        target = static_cast<int32_t>(*to_row);
      }
      adjacency.forward_target[static_cast<size_t>(row)] = target;
    }

    // The reverse CSR is rebuilt whole by an ascending-row counting sort:
    // appended rows shift offsets everywhere, and filling in row order
    // keeps the items in the order a build from row 0 gives them.
    std::vector<int64_t> reverse_counts(static_cast<size_t>(to_tuples), 0);
    for (int64_t row = 0; row < from_rows; ++row) {
      const int32_t target =
          adjacency.forward_target[static_cast<size_t>(row)];
      if (target >= 0) {
        ++reverse_counts[static_cast<size_t>(target)];
      }
    }
    adjacency.reverse_offsets.assign(static_cast<size_t>(to_tuples) + 1, 0);
    for (int64_t t = 0; t < to_tuples; ++t) {
      adjacency.reverse_offsets[static_cast<size_t>(t) + 1] =
          adjacency.reverse_offsets[static_cast<size_t>(t)] +
          reverse_counts[static_cast<size_t>(t)];
    }
    adjacency.reverse_items.assign(
        static_cast<size_t>(adjacency.reverse_offsets.back()), 0);
    std::vector<int64_t> cursor(adjacency.reverse_offsets.begin(),
                                adjacency.reverse_offsets.end() - 1);
    for (int64_t row = 0; row < from_rows; ++row) {
      const int32_t target =
          adjacency.forward_target[static_cast<size_t>(row)];
      if (target < 0) {
        continue;
      }
      adjacency.reverse_items[static_cast<size_t>(
          cursor[static_cast<size_t>(target)]++)] =
          static_cast<int32_t>(row);
    }
  }
  return Status::Ok();
}

int64_t LinkGraph::NumTuples(int node_id) const {
  DISTINCT_CHECK(node_id >= 0 && node_id < schema_->num_nodes());
  return num_tuples_[static_cast<size_t>(node_id)];
}

std::span<const int32_t> LinkGraph::Forward(int edge_id,
                                            int32_t tuple) const {
  const EdgeAdjacency& adjacency = edges_[static_cast<size_t>(edge_id)];
  DISTINCT_DCHECK(tuple >= 0 && static_cast<size_t>(tuple) <
                                    adjacency.forward_target.size());
  const int32_t* slot = &adjacency.forward_target[static_cast<size_t>(tuple)];
  if (*slot < 0) {
    return {};
  }
  return {slot, 1};
}

std::span<const int32_t> LinkGraph::Reverse(int edge_id,
                                            int32_t tuple) const {
  const EdgeAdjacency& adjacency = edges_[static_cast<size_t>(edge_id)];
  DISTINCT_DCHECK(tuple >= 0 &&
                  static_cast<size_t>(tuple) + 1 <
                      adjacency.reverse_offsets.size());
  const int64_t begin =
      adjacency.reverse_offsets[static_cast<size_t>(tuple)];
  const int64_t end =
      adjacency.reverse_offsets[static_cast<size_t>(tuple) + 1];
  return {adjacency.reverse_items.data() + begin,
          static_cast<size_t>(end - begin)};
}

std::string LinkGraph::TupleLabel(int node_id, int32_t tuple) const {
  const SchemaNode& node = schema_->node(node_id);
  const Table& table = schema_->db().table(node.table_id);
  if (node.is_attribute) {
    const int64_t cell =
        attribute_values_[static_cast<size_t>(node_id)][static_cast<size_t>(
            tuple)];
    if (table.column(node.column).type == ColumnType::kString) {
      return table.dictionary(node.column).Lookup(cell);
    }
    return StrFormat("%lld", static_cast<long long>(cell));
  }
  // Table row: render "Table#row(v1, v2, ...)" with up to three cells.
  std::string out =
      StrFormat("%s#%d(", node.name.c_str(), static_cast<int>(tuple));
  const int cells = std::min(table.num_columns(), 3);
  for (int c = 0; c < cells; ++c) {
    if (c > 0) out += ", ";
    out += table.GetValue(tuple, c).DebugString();
  }
  out += ")";
  return out;
}

}  // namespace distinct
