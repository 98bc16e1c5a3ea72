#include "relational/join_path.h"

#include <set>

#include <gtest/gtest.h>

#include "../test_util.h"

namespace distinct {
namespace {

class JoinPathTest : public ::testing::Test {
 protected:
  JoinPathTest() : db_(testing_util::MakeMiniDblp()) {
    auto graph = SchemaGraph::Build(db_);
    DISTINCT_CHECK(graph.ok());
    graph_ = std::make_unique<SchemaGraph>(*std::move(graph));
    publish_ = *graph_->NodeForTable(kPublishTable);
  }

  Database db_;
  std::unique_ptr<SchemaGraph> graph_;
  int publish_ = -1;
};

TEST_F(JoinPathTest, LengthOnePathsAreTheOutgoingEdges) {
  PathEnumerationOptions options;
  options.max_length = 1;
  const auto paths = EnumerateJoinPaths(*graph_, publish_, options);
  ASSERT_EQ(paths.size(), 2u);  // author edge + paper edge
  for (const JoinPath& path : paths) {
    EXPECT_EQ(path.length(), 1);
    EXPECT_EQ(path.start_node, publish_);
  }
}

TEST_F(JoinPathTest, CountsGrowWithLength) {
  PathEnumerationOptions options;
  options.max_length = 1;
  const size_t len1 = EnumerateJoinPaths(*graph_, publish_, options).size();
  options.max_length = 2;
  const size_t len2 = EnumerateJoinPaths(*graph_, publish_, options).size();
  options.max_length = 3;
  const size_t len3 = EnumerateJoinPaths(*graph_, publish_, options).size();
  EXPECT_LT(len1, len2);
  EXPECT_LT(len2, len3);
}

TEST_F(JoinPathTest, EveryPathEndsWhereTraverseSaysItDoes) {
  PathEnumerationOptions options;
  options.max_length = 4;
  for (const JoinPath& path : EnumerateJoinPaths(*graph_, publish_,
                                                 options)) {
    int node = path.start_node;
    for (const JoinStep& step : path.steps) {
      node = graph_->Traverse(node, IncidentEdge{step.edge_id,
                                                 step.forward});
    }
    EXPECT_EQ(path.EndNode(*graph_), node);
  }
}

TEST_F(JoinPathTest, LevelNodesFollowEveryStep) {
  PathEnumerationOptions options;
  options.max_length = 4;
  for (const JoinPath& path : EnumerateJoinPaths(*graph_, publish_,
                                                 options)) {
    const std::vector<int> nodes = path.LevelNodes(*graph_);
    ASSERT_EQ(nodes.size(), path.steps.size() + 1);
    EXPECT_EQ(nodes.front(), path.start_node);
    for (size_t i = 0; i < path.steps.size(); ++i) {
      EXPECT_EQ(nodes[i + 1],
                graph_->Traverse(nodes[i], IncidentEdge{path.steps[i].edge_id,
                                                        path.steps[i].forward}));
    }
    EXPECT_EQ(nodes.back(), path.EndNode(*graph_));
  }
}

TEST_F(JoinPathTest, PathsAreUnique) {
  PathEnumerationOptions options;
  options.max_length = 4;
  const auto paths = EnumerateJoinPaths(*graph_, publish_, options);
  std::set<std::string> descriptions;
  for (const JoinPath& path : paths) {
    EXPECT_TRUE(descriptions.insert(path.Describe(*graph_)).second)
        << "duplicate path " << path.Describe(*graph_);
  }
}

TEST_F(JoinPathTest, ForbiddenFirstStepExcluded) {
  // Find the author edge.
  int author_edge = -1;
  for (int e = 0; e < graph_->num_edges(); ++e) {
    if (graph_->edge(e).to_node == *graph_->NodeForTable(kAuthorsTable)) {
      author_edge = e;
    }
  }
  ASSERT_GE(author_edge, 0);

  PathEnumerationOptions options;
  options.max_length = 3;
  options.forbidden_first_steps.push_back(JoinStep{author_edge, true});
  for (const JoinPath& path : EnumerateJoinPaths(*graph_, publish_,
                                                 options)) {
    EXPECT_FALSE(path.steps.front() == (JoinStep{author_edge, true}))
        << path.Describe(*graph_);
  }
  // But the author edge may still appear later in a path.
  bool author_edge_used_later = false;
  for (const JoinPath& path : EnumerateJoinPaths(*graph_, publish_,
                                                 options)) {
    for (size_t s = 1; s < path.steps.size(); ++s) {
      if (path.steps[s].edge_id == author_edge) {
        author_edge_used_later = true;
      }
    }
  }
  EXPECT_TRUE(author_edge_used_later);
}

TEST_F(JoinPathTest, CoauthorPathExists) {
  PathEnumerationOptions options;
  options.max_length = 3;
  bool found = false;
  for (const JoinPath& path : EnumerateJoinPaths(*graph_, publish_,
                                                 options)) {
    if (path.Describe(*graph_) ==
        "Publish -paper_id-> Publications <-paper_id- Publish "
        "-author_id-> Authors") {
      found = true;
      EXPECT_EQ(path.EndNode(*graph_), *graph_->NodeForTable(kAuthorsTable));
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(JoinPathTest, DescribeMentionsDirections) {
  PathEnumerationOptions options;
  options.max_length = 2;
  bool saw_forward = false;
  bool saw_backward = false;
  for (const JoinPath& path : EnumerateJoinPaths(*graph_, publish_,
                                                 options)) {
    const std::string description = path.Describe(*graph_);
    if (description.find("->") != std::string::npos) saw_forward = true;
    if (description.find("<-") != std::string::npos) saw_backward = true;
  }
  EXPECT_TRUE(saw_forward);
  EXPECT_TRUE(saw_backward);
}

TEST_F(JoinPathTest, OrderedByLength) {
  PathEnumerationOptions options;
  options.max_length = 4;
  const auto paths = EnumerateJoinPaths(*graph_, publish_, options);
  for (size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LE(paths[i - 1].length(), paths[i].length());
  }
}

TEST_F(JoinPathTest, MaxLengthZeroYieldsNothing) {
  PathEnumerationOptions options;
  options.max_length = 0;
  EXPECT_TRUE(EnumerateJoinPaths(*graph_, publish_, options).empty());
}

/// Property sweep: path counts over the promoted DBLP schema match the
/// closed-form expansion (each node's branching is fixed).
class PathCountTest : public ::testing::TestWithParam<int> {};

TEST_P(PathCountTest, PromotedSchemaCounts) {
  Database db = testing_util::MakeMiniDblp();
  auto graph = SchemaGraph::Build(db);
  ASSERT_TRUE(graph.ok());
  for (const auto& [table, column] : DblpDefaultPromotions()) {
    ASSERT_TRUE(graph->PromoteAttribute(table, column).ok());
  }
  PathEnumerationOptions options;
  options.max_length = GetParam();
  const auto paths = EnumerateJoinPaths(
      *graph, *graph->NodeForTable(kPublishTable), options);
  // Known counts for the DBLP schema with 3 promotions, no exclusions:
  // L1: 2, L2: +3, L3: +8, L4: +12.
  const size_t expected[] = {0, 2, 5, 13, 25};
  ASSERT_LE(GetParam(), 4);
  EXPECT_EQ(paths.size(), expected[GetParam()]);
}

INSTANTIATE_TEST_SUITE_P(Lengths, PathCountTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace distinct
