#include "train/training_set.h"

#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "dblp/generator.h"
#include "dblp/schema.h"

namespace distinct {
namespace {

GeneratorConfig SmallWorld(uint64_t seed = 5) {
  GeneratorConfig config;
  config.seed = seed;
  config.num_communities = 10;
  config.authors_per_community = 20;
  config.ambiguous = {{"Wei Wang", 3, 15}};
  return config;
}

TrainingSetOptions SmallOptions() {
  TrainingSetOptions options;
  options.num_positive = 50;
  options.num_negative = 50;
  return options;
}

class TrainingSetTest : public ::testing::Test {
 protected:
  TrainingSetTest() {
    auto dataset = GenerateDblpDataset(SmallWorld());
    DISTINCT_CHECK(dataset.ok());
    dataset_ = std::make_unique<DblpDataset>(*std::move(dataset));
  }

  std::unique_ptr<DblpDataset> dataset_;
};

TEST_F(TrainingSetTest, ProducesRequestedCounts) {
  auto pairs =
      BuildTrainingSet(dataset_->db, DblpReferenceSpec(), SmallOptions());
  ASSERT_TRUE(pairs.ok());
  int positives = 0;
  int negatives = 0;
  for (const TrainingPair& pair : *pairs) {
    if (pair.label == 1) ++positives;
    if (pair.label == -1) ++negatives;
  }
  EXPECT_EQ(positives, 50);
  EXPECT_EQ(negatives, 50);
}

TEST_F(TrainingSetTest, LabelsAreActuallyCorrect) {
  // The generator's global truth lets us check the heuristic's labels.
  auto pairs =
      BuildTrainingSet(dataset_->db, DblpReferenceSpec(), SmallOptions());
  ASSERT_TRUE(pairs.ok());
  int correct = 0;
  for (const TrainingPair& pair : *pairs) {
    const int e1 =
        dataset_->entity_of_publish_row[static_cast<size_t>(pair.ref1)];
    const int e2 =
        dataset_->entity_of_publish_row[static_cast<size_t>(pair.ref2)];
    const int truth = (e1 == e2) ? 1 : -1;
    if (truth == pair.label) {
      ++correct;
    }
  }
  // The rare-name heuristic is allowed a little noise (two rare-name
  // entities may share a name by chance), but must be near-perfect.
  EXPECT_GT(correct, 95);
}

TEST_F(TrainingSetTest, PairsAreDistinctReferences) {
  auto pairs =
      BuildTrainingSet(dataset_->db, DblpReferenceSpec(), SmallOptions());
  ASSERT_TRUE(pairs.ok());
  for (const TrainingPair& pair : *pairs) {
    EXPECT_NE(pair.ref1, pair.ref2);
    EXPECT_GE(pair.ref1, 0);
    EXPECT_GE(pair.ref2, 0);
  }
}

TEST_F(TrainingSetTest, DeterministicForSeed) {
  auto a = BuildTrainingSet(dataset_->db, DblpReferenceSpec(),
                            SmallOptions());
  auto b = BuildTrainingSet(dataset_->db, DblpReferenceSpec(),
                            SmallOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].ref1, (*b)[i].ref1);
    EXPECT_EQ((*a)[i].ref2, (*b)[i].ref2);
    EXPECT_EQ((*a)[i].label, (*b)[i].label);
  }
}

TEST_F(TrainingSetTest, SeedChangesSampling) {
  TrainingSetOptions options = SmallOptions();
  options.seed = 1;
  auto a = BuildTrainingSet(dataset_->db, DblpReferenceSpec(), options);
  options.seed = 2;
  auto b = BuildTrainingSet(dataset_->db, DblpReferenceSpec(), options);
  ASSERT_TRUE(a.ok() && b.ok());
  bool any_difference = false;
  for (size_t i = 0; i < a->size(); ++i) {
    if ((*a)[i].ref1 != (*b)[i].ref1 || (*a)[i].ref2 != (*b)[i].ref2) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(TrainingSetTest, NoAuthorDominatesPositives) {
  TrainingSetOptions options = SmallOptions();
  options.max_pairs_per_author = 3;
  auto pairs = BuildTrainingSet(dataset_->db, DblpReferenceSpec(), options);
  ASSERT_TRUE(pairs.ok());
  // Count positive pairs per (entity of ref1); cap respected.
  std::map<int, int> per_entity;
  for (const TrainingPair& pair : *pairs) {
    if (pair.label == 1) {
      ++per_entity[dataset_->entity_of_publish_row[static_cast<size_t>(
          pair.ref1)]];
    }
  }
  for (const auto& [entity, count] : per_entity) {
    EXPECT_LE(count, 3);
  }
}

TEST_F(TrainingSetTest, AmbiguousNamesNeverUsedForTraining) {
  auto pairs =
      BuildTrainingSet(dataset_->db, DblpReferenceSpec(), SmallOptions());
  ASSERT_TRUE(pairs.ok());
  std::set<int32_t> ambiguous_rows(
      dataset_->cases[0].publish_rows.begin(),
      dataset_->cases[0].publish_rows.end());
  for (const TrainingPair& pair : *pairs) {
    EXPECT_FALSE(ambiguous_rows.contains(pair.ref1));
    EXPECT_FALSE(ambiguous_rows.contains(pair.ref2));
  }
}

TEST(TrainingSetErrorTest, FailsOnTinyDatabase) {
  auto db = MakeEmptyDblpDatabase();
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE(
      BuildTrainingSet(*db, DblpReferenceSpec(), TrainingSetOptions{}).ok());
}

TEST(TrainingSetErrorTest, FailsWhenTooFewPositivesExist) {
  GeneratorConfig config;
  config.seed = 9;
  config.num_communities = 2;
  config.authors_per_community = 4;
  config.ambiguous = {{"Wei Wang", 2, 6}};
  auto dataset = GenerateDblpDataset(config);
  ASSERT_TRUE(dataset.ok());
  TrainingSetOptions options;
  options.num_positive = 100000;
  options.num_negative = 10;
  auto pairs = BuildTrainingSet(dataset->db, DblpReferenceSpec(), options);
  ASSERT_FALSE(pairs.ok());
  EXPECT_EQ(pairs.status().code(), StatusCode::kFailedPrecondition);
  const std::string message = pairs.status().message();
  EXPECT_NE(message.find("positive pairs"), std::string::npos) << message;
  EXPECT_NE(message.find("max_first_name_count=3"), std::string::npos)
      << message;
  EXPECT_NE(message.find("--unsupervised"), std::string::npos) << message;
}

// Six first and six last names for 400 authors: every part is on more
// than three names, so no name is rare and sampling cannot start. The
// failure names the thresholds that decided it and the way to run without
// training.
TEST(TrainingSetErrorTest, TinyNamePoolsSayWhatToChange) {
  GeneratorConfig config;
  config.num_communities = 16;
  config.authors_per_community = 25;
  config.first_name_pool = 6;
  config.last_name_pool = 6;
  config.ambiguous = {{"Wei Wang", 2, 6}};
  auto dataset = GenerateDblpDataset(config);
  ASSERT_TRUE(dataset.ok());
  auto pairs = BuildTrainingSet(dataset->db, DblpReferenceSpec(),
                                TrainingSetOptions{});
  ASSERT_FALSE(pairs.ok());
  EXPECT_EQ(pairs.status().code(), StatusCode::kFailedPrecondition);
  const std::string message = pairs.status().message();
  EXPECT_NE(message.find("likely-unique authors found"), std::string::npos)
      << message;
  EXPECT_NE(message.find("names scanned"), std::string::npos) << message;
  EXPECT_NE(message.find("max_first_name_count=3"), std::string::npos)
      << message;
  EXPECT_NE(message.find("max_last_name_count=3"), std::string::npos)
      << message;
  EXPECT_NE(message.find("--unsupervised"), std::string::npos) << message;
}

}  // namespace
}  // namespace distinct
