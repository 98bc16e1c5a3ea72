#include "prop/link_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "core/delta.h"
#include "dblp/generator.h"

namespace distinct {
namespace {

class LinkGraphTest : public ::testing::Test {
 protected:
  LinkGraphTest() : db_(testing_util::MakeMiniDblp()) {
    auto graph = SchemaGraph::Build(db_);
    DISTINCT_CHECK(graph.ok());
    schema_ = std::make_unique<SchemaGraph>(*std::move(graph));
    DISTINCT_CHECK(
        schema_->PromoteAttribute(kConferencesTable, "publisher").ok());
    DISTINCT_CHECK(schema_->PromoteAttribute(kProceedingsTable, "year").ok());
    auto link = LinkGraph::Build(*schema_);
    DISTINCT_CHECK(link.ok());
    link_ = std::make_unique<LinkGraph>(*std::move(link));
  }

  int EdgeTo(const std::string& table, const std::string& attr = "") {
    for (int e = 0; e < schema_->num_edges(); ++e) {
      const SchemaEdge& edge = schema_->edge(e);
      const std::string target = attr.empty() ? table : table + "." + attr;
      if (schema_->node(edge.to_node).name == target) {
        return e;
      }
    }
    return -1;
  }

  Database db_;
  std::unique_ptr<SchemaGraph> schema_;
  std::unique_ptr<LinkGraph> link_;
};

TEST_F(LinkGraphTest, TupleCountsMatchTables) {
  EXPECT_EQ(link_->NumTuples(*db_.TableId(kAuthorsTable)), 5);
  EXPECT_EQ(link_->NumTuples(*db_.TableId(kPublishTable)), 7);
  EXPECT_EQ(link_->NumTuples(*db_.TableId(kPublicationsTable)), 3);
}

TEST_F(LinkGraphTest, AttributeUniversesAreDistinctValues) {
  // Publishers: P1, P2 -> 2 tuples. Years: 1997, 2002, 2001 -> 3.
  int publisher_node = -1;
  int year_node = -1;
  for (int n = 0; n < schema_->num_nodes(); ++n) {
    if (schema_->node(n).name == "Conferences.publisher") publisher_node = n;
    if (schema_->node(n).name == "Proceedings.year") year_node = n;
  }
  ASSERT_GE(publisher_node, 0);
  ASSERT_GE(year_node, 0);
  EXPECT_EQ(link_->NumTuples(publisher_node), 2);
  EXPECT_EQ(link_->NumTuples(year_node), 3);
}

TEST_F(LinkGraphTest, ForwardFollowsForeignKey) {
  const int author_edge = EdgeTo(kAuthorsTable);
  ASSERT_GE(author_edge, 0);
  // Publish row 0 -> Wei Wang (author row 0).
  const auto targets = link_->Forward(author_edge, 0);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], testing_util::kWeiWang);
}

TEST_F(LinkGraphTest, ReverseListsAllReferencingRows) {
  const int author_edge = EdgeTo(kAuthorsTable);
  const auto refs = link_->Reverse(author_edge,
                                   static_cast<int32_t>(
                                       testing_util::kWeiWang));
  ASSERT_EQ(refs.size(), 3u);
  EXPECT_EQ(refs[0], testing_util::kWeiWangRef0);
  EXPECT_EQ(refs[1], testing_util::kWeiWangRef1);
  EXPECT_EQ(refs[2], testing_util::kWeiWangRef2);
}

TEST_F(LinkGraphTest, ReverseFanoutMatchesDegree) {
  const int paper_edge = EdgeTo(kPublicationsTable);
  ASSERT_GE(paper_edge, 0);
  // Paper 1 has three Publish rows.
  EXPECT_EQ(link_->Reverse(paper_edge, 1).size(), 3u);
  // ReverseFanout of a forward step arriving at paper 1:
  EXPECT_EQ(link_->ReverseFanout(JoinStep{paper_edge, true}, 1), 3);
}

TEST_F(LinkGraphTest, AttributeEdgeConnectsSharedValues) {
  const int publisher_edge = EdgeTo(kConferencesTable, "publisher");
  ASSERT_GE(publisher_edge, 0);
  // VLDB (conf 0) and SIGMOD (conf 1) share publisher P1.
  const auto p1 = link_->Forward(publisher_edge, 0);
  ASSERT_EQ(p1.size(), 1u);
  const auto back = link_->Reverse(publisher_edge, p1[0]);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], 0);
  EXPECT_EQ(back[1], 1);
}

TEST_F(LinkGraphTest, TupleLabelsAreReadable) {
  const int authors = *db_.TableId(kAuthorsTable);
  EXPECT_NE(link_->TupleLabel(authors, 0).find("Wei Wang"),
            std::string::npos);
  int publisher_node = -1;
  for (int n = 0; n < schema_->num_nodes(); ++n) {
    if (schema_->node(n).name == "Conferences.publisher") publisher_node = n;
  }
  EXPECT_EQ(link_->TupleLabel(publisher_node, 0), "P1");
}

/// The facts the propagation sweep's reverse step relies on, over every
/// edge of `link`: each row in Reverse(e, t) has t as its one forward
/// target, the list ascends, and every row with a target sits in exactly
/// one reverse list (so reverse lists of distinct tuples are disjoint).
void ExpectReverseListsPartitionTheRows(const LinkGraph& link) {
  const SchemaGraph& schema = link.schema();
  for (int e = 0; e < schema.num_edges(); ++e) {
    const SchemaEdge& edge = schema.edge(e);
    SCOPED_TRACE(edge.name);
    std::vector<int> lists(static_cast<size_t>(link.NumTuples(edge.from_node)),
                           0);
    for (int32_t t = 0; t < link.NumTuples(edge.to_node); ++t) {
      const std::span<const int32_t> rows = link.Reverse(e, t);
      EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end())) << "tuple " << t;
      for (const int32_t row : rows) {
        const std::span<const int32_t> forward = link.Forward(e, row);
        ASSERT_EQ(forward.size(), 1u) << "row " << row;
        EXPECT_EQ(forward[0], t) << "row " << row;
        ++lists[static_cast<size_t>(row)];
      }
    }
    for (int32_t row = 0; row < link.NumTuples(edge.from_node); ++row) {
      EXPECT_EQ(lists[static_cast<size_t>(row)],
                link.Forward(e, row).empty() ? 0 : 1)
          << "row " << row;
    }
  }
}

TEST_F(LinkGraphTest, EveryReverseItemPointsBackAtItsTuple) {
  ExpectReverseListsPartitionTheRows(*link_);

  // The seed-42 corpus, then again after its last 300 references arrive
  // through ApplyAppend.
  auto dataset = GenerateDblpDataset(GeneratorConfig{});
  ASSERT_TRUE(dataset.ok());
  auto split = MakeTailDelta(dataset->db, kPublishTable, 300);
  ASSERT_TRUE(split.ok());
  Database db = std::move(split->first);
  auto schema = SchemaGraph::Build(db);
  ASSERT_TRUE(schema.ok());
  for (const auto& [table, column] : DblpDefaultPromotions()) {
    ASSERT_TRUE(schema->PromoteAttribute(table, column).ok());
  }
  auto link = LinkGraph::Build(*schema);
  ASSERT_TRUE(link.ok());
  ExpectReverseListsPartitionTheRows(*link);

  Table& publish = **db.FindMutableTable(kPublishTable);
  const int64_t base_rows = publish.num_rows();
  for (const DatabaseDelta::TableRows& batch : split->second.tables()) {
    for (const std::vector<Value>& row : batch.rows) {
      ASSERT_TRUE(publish.AppendRow(row).ok());
    }
  }
  ASSERT_EQ(publish.num_rows(), base_rows + 300);
  ASSERT_TRUE(link->ApplyAppend().ok());
  ExpectReverseListsPartitionTheRows(*link);
}

TEST(LinkGraphNullTest, NullForeignKeysAreSkipped) {
  Database db;
  auto target = Table::Create(
      "target", {ColumnSpec{"id", ColumnType::kInt64, true, ""}});
  ASSERT_TRUE(target->AppendRow({Value::Int(0)}).ok());
  ASSERT_TRUE(db.AddTable(*std::move(target)).ok());
  auto source = Table::Create(
      "source", {ColumnSpec{"id", ColumnType::kInt64, true, ""},
                 ColumnSpec{"fk", ColumnType::kInt64, false, "target"}});
  ASSERT_TRUE(source->AppendRow({Value::Int(0), Value::Int(0)}).ok());
  ASSERT_TRUE(source->AppendRow({Value::Int(1), Value::Null()}).ok());
  ASSERT_TRUE(db.AddTable(*std::move(source)).ok());

  auto schema = SchemaGraph::Build(db);
  ASSERT_TRUE(schema.ok());
  auto link = LinkGraph::Build(*schema);
  ASSERT_TRUE(link.ok());
  EXPECT_EQ(link->Forward(0, 0).size(), 1u);
  EXPECT_EQ(link->Forward(0, 1).size(), 0u);  // NULL
  EXPECT_EQ(link->Reverse(0, 0).size(), 1u);
}

TEST(LinkGraphNullTest, DanglingFkFailsBuild) {
  Database db;
  auto target = Table::Create(
      "target", {ColumnSpec{"id", ColumnType::kInt64, true, ""}});
  ASSERT_TRUE(db.AddTable(*std::move(target)).ok());
  auto source = Table::Create(
      "source", {ColumnSpec{"id", ColumnType::kInt64, true, ""},
                 ColumnSpec{"fk", ColumnType::kInt64, false, "target"}});
  ASSERT_TRUE(source->AppendRow({Value::Int(0), Value::Int(42)}).ok());
  ASSERT_TRUE(db.AddTable(*std::move(source)).ok());

  auto schema = SchemaGraph::Build(db);
  ASSERT_TRUE(schema.ok());
  EXPECT_FALSE(LinkGraph::Build(*schema).ok());
}

}  // namespace
}  // namespace distinct
