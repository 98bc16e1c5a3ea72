#include "core/distinct.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "../test_util.h"
#include "dblp/generator.h"
#include "dblp/schema.h"
#include "sim/profile_store.h"
#include "sim/similarity_model_io.h"

namespace distinct {
namespace {

/// An unsupervised engine on the mini database (too small to train on).
Distinct MiniEngine(const Database& db) {
  DistinctConfig config;
  config.supervised = false;
  config.promotions = DblpDefaultPromotions();
  auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
  DISTINCT_CHECK(engine.ok());
  return *std::move(engine);
}

TEST(DistinctTest, CreateBuildsPathsAndUniformModel) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  EXPECT_EQ(engine.paths().size(), 18u);
  EXPECT_EQ(engine.model().num_paths(), 18u);
  for (const double w : engine.model().resem_weights()) {
    EXPECT_DOUBLE_EQ(w, 1.0 / 18.0);
  }
  EXPECT_EQ(engine.report().num_paths, 18);
}

TEST(DistinctTest, RefsForNameFindsAllReferences) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  auto refs = engine.RefsForName("Wei Wang");
  ASSERT_TRUE(refs.ok());
  EXPECT_EQ(*refs, (std::vector<int32_t>{0, 2, 6}));
  auto none = engine.RefsForName("Nobody");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(DistinctTest, ResolveNameUnknownNameIsNotFound) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  EXPECT_EQ(engine.ResolveName("Nobody").status().code(),
            StatusCode::kNotFound);
}

TEST(DistinctTest, ResolveNameClustersAllRefs) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  auto result = engine.ResolveName("Wei Wang");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->refs.size(), 3u);
  EXPECT_EQ(result->clustering.assignment.size(), 3u);
  EXPECT_GE(result->clustering.num_clusters, 1);
  EXPECT_LE(result->clustering.num_clusters, 3);
}

TEST(DistinctTest, MatricesAreSymmetricAndSized) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  auto refs = engine.RefsForName("Wei Wang");
  auto matrices = engine.ComputeMatrices(*refs);
  ASSERT_TRUE(matrices.ok());
  EXPECT_EQ(matrices->first.size(), 3u);
  EXPECT_EQ(matrices->second.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < i; ++j) {
      EXPECT_GE(matrices->first.at(i, j), 0.0);
      EXPECT_GE(matrices->second.at(i, j), 0.0);
    }
  }
}

TEST(DistinctTest, MinSimControlsGranularity) {
  Database db = testing_util::MakeMiniDblp();

  DistinctConfig loose;
  loose.supervised = false;
  loose.min_sim = 1e-9;
  auto loose_engine = Distinct::Create(db, DblpReferenceSpec(), loose);
  ASSERT_TRUE(loose_engine.ok());
  auto merged = loose_engine->ResolveName("Wei Wang");
  ASSERT_TRUE(merged.ok());

  DistinctConfig strict;
  strict.supervised = false;
  strict.min_sim = 1e9;
  auto strict_engine = Distinct::Create(db, DblpReferenceSpec(), strict);
  ASSERT_TRUE(strict_engine.ok());
  auto split = strict_engine->ResolveName("Wei Wang");
  ASSERT_TRUE(split.ok());

  EXPECT_LE(merged->clustering.num_clusters,
            split->clustering.num_clusters);
  EXPECT_EQ(split->clustering.num_clusters, 3);
}

TEST(DistinctTest, ClusterOptionsMirrorConfig) {
  Database db = testing_util::MakeMiniDblp();
  DistinctConfig config;
  config.supervised = false;
  config.min_sim = 0.25;
  config.measure = ClusterMeasure::kWalkOnly;
  config.combine = CombineRule::kArithmeticMean;
  config.stopping = StoppingRule::kLargestGap;
  auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());
  const AgglomerativeOptions options = engine->cluster_options();
  EXPECT_DOUBLE_EQ(options.min_sim, 0.25);
  EXPECT_EQ(options.measure, ClusterMeasure::kWalkOnly);
  EXPECT_EQ(options.combine, CombineRule::kArithmeticMean);
  EXPECT_EQ(options.stopping, StoppingRule::kLargestGap);
}

// The subtree-memo budget has one setting: whatever the caller puts in
// propagation.cache_bytes is what the engine keeps.
TEST(DistinctTest, CreateKeepsCallerMemoBudget) {
  Database db = testing_util::MakeMiniDblp();
  for (const size_t cache_bytes : {size_t{0}, size_t{1} << 20}) {
    DistinctConfig config;
    config.supervised = false;
    config.propagation.cache_bytes = cache_bytes;
    auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ(engine->config().propagation.cache_bytes, cache_bytes);
  }
  EXPECT_EQ(DistinctConfig{}.propagation.cache_bytes, size_t{64} << 20);
}

TEST(DistinctTest, CreateFailsOnBadSpec) {
  Database db = testing_util::MakeMiniDblp();
  ReferenceSpec spec = DblpReferenceSpec();
  spec.reference_table = "Ghost";
  EXPECT_FALSE(Distinct::Create(db, spec, DistinctConfig{}).ok());
}

TEST(DistinctTest, CreateFailsOnBadPromotion) {
  Database db = testing_util::MakeMiniDblp();
  DistinctConfig config;
  config.supervised = false;
  config.promotions = {{"Ghost", "column"}};
  EXPECT_FALSE(Distinct::Create(db, DblpReferenceSpec(), config).ok());
}

TEST(DistinctTest, CreateWithModelInstallsWeights) {
  Database db = testing_util::MakeMiniDblp();
  Distinct trained = MiniEngine(db);
  // Pretend the uniform model was trained elsewhere; round-trip it.
  SimilarityModel model = trained.model();

  DistinctConfig config;
  config.promotions = DblpDefaultPromotions();
  auto engine =
      Distinct::CreateWithModel(db, DblpReferenceSpec(), config, model);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->model().num_paths(), trained.model().num_paths());
  EXPECT_FALSE(engine->config().supervised);  // never trains
  // Resolution works.
  EXPECT_TRUE(engine->ResolveName("Wei Wang").ok());
}

TEST(DistinctTest, CreateWithModelRejectsWrongWidth) {
  Database db = testing_util::MakeMiniDblp();
  DistinctConfig config;
  config.promotions = DblpDefaultPromotions();
  const SimilarityModel tiny = SimilarityModel::Uniform(2);
  EXPECT_FALSE(
      Distinct::CreateWithModel(db, DblpReferenceSpec(), config, tiny).ok());
}

TEST(DistinctTest, CreateWithModelDetectsSchemaDrift) {
  Database db = testing_util::MakeMiniDblp();
  Distinct trained = MiniEngine(db);
  // Right width, wrong path names.
  std::vector<std::string> names(trained.model().num_paths(),
                                 "Some -other-> Path");
  SimilarityModel drifted(trained.model().resem_weights(),
                          trained.model().walk_weights(), std::move(names));
  DistinctConfig config;
  config.promotions = DblpDefaultPromotions();
  const auto engine =
      Distinct::CreateWithModel(db, DblpReferenceSpec(), config, drifted);
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().message().find("different schema"),
            std::string::npos);
}

TEST(DistinctTest, SupervisedTrainingOnGeneratedData) {
  GeneratorConfig generator;
  generator.seed = 11;
  generator.num_communities = 10;
  generator.authors_per_community = 20;
  generator.ambiguous = {{"Wei Wang", 3, 20}};
  auto dataset = GenerateDblpDataset(generator);
  ASSERT_TRUE(dataset.ok());

  DistinctConfig config;
  config.promotions = DblpDefaultPromotions();
  config.training.num_positive = 80;
  config.training.num_negative = 80;
  auto engine = Distinct::Create(dataset->db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());

  const TrainingReport& report = engine->report();
  EXPECT_EQ(report.num_training_pairs, 160u);
  EXPECT_GT(report.num_unique_refs, 0u);
  // Half the negatives are hard (linked pairs), so training accuracy is
  // far from perfect by construction; it just has to beat chance clearly.
  EXPECT_GT(report.train_accuracy_resem, 0.6);
  EXPECT_GT(report.train_accuracy_walk, 0.6);
  // Learned weights: normalized to sum 1.
  double total = 0.0;
  for (const double w : engine->model().resem_weights()) {
    EXPECT_GE(w, 0.0);
    total += w;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Path names attached.
  EXPECT_EQ(engine->model().path_names().size(), engine->paths().size());
}

// Training propagates on a pool of its own, num_threads wide, over a memo
// of propagation.cache_bytes; neither may change one byte of the model.
TEST(DistinctTest, SupervisedModelIsTheSameAtEveryThreadCountAndMemoSize) {
  GeneratorConfig generator;
  generator.seed = 11;
  generator.num_communities = 10;
  generator.authors_per_community = 20;
  generator.ambiguous = {{"Wei Wang", 3, 20}};
  auto dataset = GenerateDblpDataset(generator);
  ASSERT_TRUE(dataset.ok());

  std::string first;
  for (const int threads : {1, 4}) {
    for (const size_t cache_bytes :
         {size_t{0}, DistinctConfig{}.propagation.cache_bytes}) {
      SCOPED_TRACE(::testing::Message() << "threads " << threads
                                        << ", memo bytes " << cache_bytes);
      DistinctConfig config;
      config.promotions = DblpDefaultPromotions();
      config.num_threads = threads;
      config.propagation.cache_bytes = cache_bytes;
      config.training.num_positive = 80;
      config.training.num_negative = 80;
      auto engine = Distinct::Create(dataset->db, DblpReferenceSpec(), config);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      // Enough references that a pool actually fans the propagation out.
      EXPECT_GE(engine->report().num_unique_refs,
                ProfileStore::kMinParallelRefs);
      const std::string model = SerializeSimilarityModel(engine->model());
      if (first.empty()) {
        first = model;
      } else {
        EXPECT_EQ(model, first);
      }
    }
  }
}

// A NULL in the name column is a name row without a name: it forms no name
// group, as a NULL identity forms none, and its references belong to no
// group. Create reads every name row, supervised (rare-name training) and
// not, so neither may fail on it.
TEST(DistinctTest, CreateSkipsANullNameRow) {
  GeneratorConfig generator;
  generator.seed = 11;
  generator.num_communities = 10;
  generator.authors_per_community = 20;
  generator.ambiguous = {{"Wei Wang", 3, 20}};
  auto dataset = GenerateDblpDataset(generator);
  ASSERT_TRUE(dataset.ok());
  Database& db = dataset->db;
  Table* authors = *db.FindMutableTable(kAuthorsTable);
  Table* publish = *db.FindMutableTable(kPublishTable);
  const int64_t nameless = authors->num_rows() + 1000;
  ASSERT_TRUE(authors->AppendRow({Value::Int(nameless), Value::Null()}).ok());
  const int64_t ref_row = publish->num_rows();
  ASSERT_TRUE(publish
                  ->AppendRow({Value::Int(ref_row + 1000),
                               Value::Int(nameless),
                               publish->GetValue(0, 2)})
                  .ok());

  for (const bool supervised : {true, false}) {
    SCOPED_TRACE(supervised ? "supervised" : "unsupervised");
    DistinctConfig config;
    config.supervised = supervised;
    config.promotions = DblpDefaultPromotions();
    config.training.num_positive = 80;
    config.training.num_negative = 80;
    auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ(engine->NameGroupOfRef(ref_row), -1);
    for (const auto& [name, refs] : engine->name_groups()) {
      EXPECT_EQ(std::find(refs.begin(), refs.end(), ref_row), refs.end());
    }
    auto resolved = engine->ResolveName("Wei Wang");
    ASSERT_TRUE(resolved.ok());
  }
}

TEST(DistinctTest, AutoMinSimInstallsSuggestedThreshold) {
  GeneratorConfig generator;
  generator.seed = 19;
  generator.num_communities = 12;
  generator.authors_per_community = 20;
  generator.ambiguous = {{"Wei Wang", 4, 30}};
  auto dataset = GenerateDblpDataset(generator);
  ASSERT_TRUE(dataset.ok());

  DistinctConfig config;
  config.promotions = DblpDefaultPromotions();
  config.training.num_positive = 150;
  config.training.num_negative = 150;
  config.auto_min_sim = true;
  auto engine = Distinct::Create(dataset->db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());

  EXPECT_GT(engine->report().suggested_min_sim, 0.0);
  EXPECT_LT(engine->report().suggested_min_sim, 1.0);
  EXPECT_DOUBLE_EQ(engine->config().min_sim,
                   engine->report().suggested_min_sim);
  EXPECT_DOUBLE_EQ(engine->cluster_options().min_sim,
                   engine->report().suggested_min_sim);
}

TEST(DistinctTest, AutoMinSimOffLeavesConfigUntouched) {
  GeneratorConfig generator;
  generator.seed = 19;
  generator.num_communities = 12;
  generator.authors_per_community = 20;
  generator.ambiguous = {{"Wei Wang", 4, 30}};
  auto dataset = GenerateDblpDataset(generator);
  ASSERT_TRUE(dataset.ok());

  DistinctConfig config;
  config.promotions = DblpDefaultPromotions();
  config.training.num_positive = 150;
  config.training.num_negative = 150;
  config.min_sim = 0.123;
  auto engine = Distinct::Create(dataset->db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());
  // Suggested value is still reported, but not installed.
  EXPECT_GT(engine->report().suggested_min_sim, 0.0);
  EXPECT_DOUBLE_EQ(engine->config().min_sim, 0.123);
}

}  // namespace
}  // namespace distinct
