#include "core/evaluation.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "../test_util.h"

namespace distinct {
namespace {

class EvaluationTest : public ::testing::Test {
 protected:
  EvaluationTest() : db_(testing_util::MakeMiniDblp()) {
    DistinctConfig config;
    config.supervised = false;
    config.min_sim = 1e-3;
    auto engine = Distinct::Create(db_, DblpReferenceSpec(), config);
    DISTINCT_CHECK(engine.ok());
    engine_ = std::make_unique<Distinct>(*std::move(engine));

    mini_case_.name = "Wei Wang";
    mini_case_.num_entities = 2;
    mini_case_.publish_rows = {0, 2, 6};
    mini_case_.truth = {0, 0, 1};
    mini_case_.entity_names = {"Wei Wang @ A", "Wei Wang @ B"};
  }

  Database db_;
  std::unique_ptr<Distinct> engine_;
  AmbiguousCase mini_case_;
};

TEST_F(EvaluationTest, EvaluateCaseFillsEverything) {
  auto evaluation = EvaluateCase(*engine_, mini_case_);
  ASSERT_TRUE(evaluation.ok());
  EXPECT_EQ(evaluation->name, "Wei Wang");
  EXPECT_EQ(evaluation->num_entities, 2);
  EXPECT_EQ(evaluation->num_refs, 3u);
  EXPECT_EQ(evaluation->clustering.assignment.size(), 3u);
  EXPECT_GE(evaluation->scores.f1, 0.0);
  EXPECT_LE(evaluation->scores.f1, 1.0);
}

TEST_F(EvaluationTest, EvaluateCasesMatchesSingleCalls) {
  auto one = EvaluateCase(*engine_, mini_case_);
  auto many = EvaluateCases(*engine_, {mini_case_, mini_case_});
  ASSERT_TRUE(one.ok() && many.ok());
  ASSERT_EQ(many->size(), 2u);
  EXPECT_EQ((*many)[0].scores.f1, one->scores.f1);
  EXPECT_EQ((*many)[1].scores.f1, one->scores.f1);
}

TEST_F(EvaluationTest, AggregateAveragesUnweighted) {
  CaseEvaluation a;
  a.scores.precision = 1.0;
  a.scores.recall = 0.5;
  a.scores.f1 = 0.6;
  a.scores.accuracy = 0.9;
  CaseEvaluation b;
  b.scores.precision = 0.5;
  b.scores.recall = 1.0;
  b.scores.f1 = 0.8;
  b.scores.accuracy = 0.7;
  const AggregateScores aggregate = Aggregate({a, b});
  EXPECT_DOUBLE_EQ(aggregate.precision, 0.75);
  EXPECT_DOUBLE_EQ(aggregate.recall, 0.75);
  EXPECT_DOUBLE_EQ(aggregate.f1, 0.7);
  EXPECT_DOUBLE_EQ(aggregate.accuracy, 0.8);
}

TEST_F(EvaluationTest, AggregateOfNothingIsZero) {
  const AggregateScores aggregate = Aggregate({});
  EXPECT_DOUBLE_EQ(aggregate.f1, 0.0);
}

TEST_F(EvaluationTest, MatricesMatchDirectComputation) {
  const std::vector<AmbiguousCase> cases = {mini_case_};
  auto matrices = ComputeCaseMatrices(*engine_, cases);
  ASSERT_TRUE(matrices.ok());
  ASSERT_EQ(matrices->size(), 1u);
  EXPECT_EQ((*matrices)[0].resem.size(), 3u);
  EXPECT_EQ((*matrices)[0].ambiguous_case, &cases[0]);

  auto direct = engine_->ResolveRefsArtifacts(mini_case_.publish_rows);
  ASSERT_TRUE(direct.ok());
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < i; ++j) {
      EXPECT_DOUBLE_EQ((*matrices)[0].resem.at(i, j),
                       direct->resem.at(i, j));
      EXPECT_DOUBLE_EQ((*matrices)[0].walk.at(i, j),
                       direct->walk.at(i, j));
    }
  }
}

TEST_F(EvaluationTest, EvaluateWithOptionsAgreesWithEvaluateCase) {
  const std::vector<AmbiguousCase> cases = {mini_case_};
  auto matrices = ComputeCaseMatrices(*engine_, cases);
  ASSERT_TRUE(matrices.ok());
  const auto evaluations =
      EvaluateWithOptions(*matrices, engine_->cluster_options());
  auto direct = EvaluateCase(*engine_, mini_case_);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(evaluations.size(), 1u);
  EXPECT_EQ(evaluations[0].scores.f1, direct->scores.f1);
  EXPECT_EQ(evaluations[0].clustering.assignment,
            direct->clustering.assignment);
}

TEST_F(EvaluationTest, BestMinSimPicksAGridValue) {
  const std::vector<AmbiguousCase> cases = {mini_case_};
  auto matrices = ComputeCaseMatrices(*engine_, cases);
  ASSERT_TRUE(matrices.ok());
  const std::vector<double> grid = DefaultMinSimGrid();
  const double best =
      BestMinSim(*matrices, engine_->cluster_options(), grid);
  EXPECT_NE(std::find(grid.begin(), grid.end(), best), grid.end());
}

TEST(MinSimGridTest, IsSortedPositive) {
  const std::vector<double> grid = DefaultMinSimGrid();
  ASSERT_GT(grid.size(), 10u);
  EXPECT_GT(grid.front(), 0.0);
  for (size_t i = 1; i < grid.size(); ++i) {
    EXPECT_GE(grid[i], grid[i - 1]);
  }
}

}  // namespace
}  // namespace distinct
