#include "relational/join_path.h"

#include <algorithm>

namespace distinct {

int JoinPath::EndNode(const SchemaGraph& graph) const {
  int node = start_node;
  for (const JoinStep& step : steps) {
    node = graph.Traverse(node, IncidentEdge{step.edge_id, step.forward});
  }
  return node;
}

std::vector<int> JoinPath::LevelNodes(const SchemaGraph& graph) const {
  std::vector<int> nodes;
  nodes.reserve(steps.size() + 1);
  nodes.push_back(start_node);
  for (const JoinStep& step : steps) {
    nodes.push_back(
        graph.Traverse(nodes.back(), IncidentEdge{step.edge_id, step.forward}));
  }
  return nodes;
}

std::string JoinPath::Describe(const SchemaGraph& graph) const {
  std::string out = graph.node(start_node).name;
  int node = start_node;
  for (const JoinStep& step : steps) {
    const SchemaEdge& edge = graph.edge(step.edge_id);
    const Table& table = graph.db().table(edge.table_id);
    const std::string& col = table.column(edge.column).name;
    node = graph.Traverse(node, IncidentEdge{step.edge_id, step.forward});
    if (step.forward) {
      out += " -" + col + "-> ";
    } else {
      out += " <-" + col + "- ";
    }
    out += graph.node(node).name;
  }
  return out;
}

std::vector<JoinPath> EnumerateJoinPaths(
    const SchemaGraph& graph, int start_node,
    const PathEnumerationOptions& options) {
  std::vector<JoinPath> result;
  // Frontier of partial walks, extended one step per round so the output is
  // ordered by length, then lexicographically by edge ids.
  std::vector<JoinPath> frontier;
  frontier.push_back(JoinPath{start_node, {}});

  for (int length = 1; length <= options.max_length; ++length) {
    std::vector<JoinPath> next;
    for (const JoinPath& prefix : frontier) {
      const int at = prefix.EndNode(graph);
      for (const IncidentEdge& incident : graph.incident(at)) {
        const JoinStep step{incident.edge_id, incident.forward};
        if (length == 1) {
          const auto& forbidden = options.forbidden_first_steps;
          if (std::find(forbidden.begin(), forbidden.end(), step) !=
              forbidden.end()) {
            continue;
          }
        }
        JoinPath extended = prefix;
        extended.steps.push_back(step);
        next.push_back(std::move(extended));
      }
    }
    result.insert(result.end(), next.begin(), next.end());
    frontier = std::move(next);
  }
  return result;
}

}  // namespace distinct
