// Integration: the full pipeline on the hand-built mini database, where we
// can reason about what the clustering should do.

#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/distinct.h"
#include "core/evaluation.h"
#include "sim/resemblance.h"

namespace distinct {
namespace {

TEST(MiniWorldTest, LinkedWeiWangsAreMoreSimilarThanUnlinked) {
  // Refs 0 and 2 share coauthor Jiong Yang; ref 6's only coauthor is Jian
  // Pei, who never collaborates with the others. So sim(0,2) must dominate
  // sim(0,6) and sim(2,6).
  Database db = testing_util::MakeMiniDblp();
  DistinctConfig config;
  config.supervised = false;
  // No attribute promotions: with uniform (unsupervised) weights the shared
  // location of papers 0 and 2 would drown the coauthor signal — exactly
  // the noise the paper's supervised weighting is designed to suppress.
  auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());

  auto matrices = engine->ResolveRefsArtifacts({0, 2, 6});
  ASSERT_TRUE(matrices.ok());
  const PairMatrix& resem = matrices->resem;
  EXPECT_GT(resem.at(0, 1), resem.at(0, 2));
  EXPECT_GT(resem.at(0, 1), resem.at(1, 2));
  const PairMatrix& walk = matrices->walk;
  EXPECT_GT(walk.at(0, 1), walk.at(0, 2));
}

TEST(MiniWorldTest, ClusteringSplitsTheUnlinkedReference) {
  Database db = testing_util::MakeMiniDblp();
  DistinctConfig config;
  config.supervised = false;
  // Threshold between the linked pair's similarity and the noise floor.
  config.min_sim = 1e-3;
  auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());

  auto result = engine->ResolveName("Wei Wang");
  ASSERT_TRUE(result.ok());
  const std::vector<int>& assignment = result->clustering.assignment;
  ASSERT_EQ(assignment.size(), 3u);
  // Refs 0 and 2 (indices 0,1) together; ref 6 (index 2) apart.
  EXPECT_EQ(assignment[0], assignment[1]);
  EXPECT_NE(assignment[0], assignment[2]);
}

TEST(MiniWorldTest, EvaluationHelpersScoreTheMiniCase) {
  Database db = testing_util::MakeMiniDblp();
  DistinctConfig config;
  config.supervised = false;
  config.min_sim = 1e-3;
  auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());

  // Pretend refs 0,2 belong to entity 0 and ref 6 to entity 1.
  AmbiguousCase mini_case;
  mini_case.name = "Wei Wang";
  mini_case.num_entities = 2;
  mini_case.publish_rows = {0, 2, 6};
  mini_case.truth = {0, 0, 1};
  mini_case.entity_names = {"Wei Wang @ A", "Wei Wang @ B"};

  auto evaluation = EvaluateCase(*engine, mini_case);
  ASSERT_TRUE(evaluation.ok());
  EXPECT_DOUBLE_EQ(evaluation->scores.f1, 1.0);
  EXPECT_EQ(evaluation->clustering.num_clusters, 2);

  const AggregateScores aggregate = Aggregate({*evaluation});
  EXPECT_DOUBLE_EQ(aggregate.f1, 1.0);
}

TEST(MiniWorldTest, SweepHelpersFindAReasonableMinSim) {
  Database db = testing_util::MakeMiniDblp();
  DistinctConfig config;
  config.supervised = false;
  auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());

  AmbiguousCase mini_case;
  mini_case.name = "Wei Wang";
  mini_case.num_entities = 2;
  mini_case.publish_rows = {0, 2, 6};
  mini_case.truth = {0, 0, 1};

  const std::vector<AmbiguousCase> cases = {mini_case};
  auto matrices = ComputeCaseMatrices(*engine, cases);
  ASSERT_TRUE(matrices.ok());
  AgglomerativeOptions options = engine->cluster_options();
  const double best = BestMinSim(*matrices, options, DefaultMinSimGrid());
  options.min_sim = best;
  const auto evaluations = EvaluateWithOptions(*matrices, options);
  EXPECT_DOUBLE_EQ(Aggregate(evaluations).f1, 1.0);
}

}  // namespace
}  // namespace distinct
