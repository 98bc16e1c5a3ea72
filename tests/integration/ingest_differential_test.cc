// The tentpole's acceptance differential: resolver output over an ingested
// mmap catalog is bit-identical to the in-memory XML loader path. Same
// synthetic corpus, two roads into a Database (stream-ingest -> columnar
// catalog -> MaterializeDatabase vs LoadDblpXmlFile), then every resolved
// name group must agree exactly — assignments, cluster counts, and merge
// similarities compared as exact doubles, not within tolerance.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <system_error>

#include "catalog/ingest.h"
#include "catalog/reader.h"
#include "core/distinct.h"
#include "dblp/schema.h"
#include "dblp/xml_corpus.h"
#include "dblp/xml_loader.h"

namespace distinct {
namespace {

DistinctConfig UnsupervisedConfig() {
  DistinctConfig config;
  config.supervised = false;  // uniform weights: deterministic, no training
  // The XML loader fills every conference with one placeholder publisher;
  // promote only year/location so uniform weights aren't glued together by
  // the constant attribute (same setup as xml_pipeline_test).
  config.promotions = {{kProceedingsTable, "year"},
                       {kProceedingsTable, "location"}};
  config.min_sim = 1e-3;
  return config;
}

class IngestDifferentialTest : public ::testing::Test {
 protected:
  // Per-process paths: ctest runs each case in its own process, and with
  // -j they run concurrently, so a shared path let one case's set-up
  // overwrite or delete the corpus another was reading.
  static std::string XmlPath() { return Base() + ".xml"; }
  static std::string CatalogDir() { return Base() + ".catalog"; }
  static std::string Base() {
    return ::testing::TempDir() + "/ingest_differential." +
           std::to_string(::getpid());
  }

  static void SetUpTestSuite() {
    const std::string xml_path = XmlPath();
    const std::string catalog_dir = CatalogDir();
    std::filesystem::remove_all(catalog_dir);

    XmlCorpusConfig corpus;
    corpus.seed = 4711;
    corpus.target_refs = 3000;
    ASSERT_TRUE(WriteSyntheticDblpXml(xml_path, corpus).ok());

    auto loaded = LoadDblpXmlFile(xml_path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    loaded_db_ = new Database(std::move(loaded->db));

    catalog::IngestOptions options;
    options.segment_papers = 256;  // many segments, not one
    auto stats = catalog::IngestDblpXml(xml_path, catalog_dir, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    auto reader = catalog::CatalogReader::Open(catalog_dir);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    auto materialized = (*reader)->MaterializeDatabase();
    ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
    catalog_db_ = new Database(std::move(materialized->db));
    generation_ = (*reader)->generation();
  }

  static void TearDownTestSuite() {
    std::error_code ignored;
    std::filesystem::remove(XmlPath(), ignored);
    std::filesystem::remove_all(CatalogDir(), ignored);
    delete loaded_db_;
    delete catalog_db_;
    loaded_db_ = nullptr;
    catalog_db_ = nullptr;
  }

  static Database* loaded_db_;
  static Database* catalog_db_;
  static int64_t generation_;
};

Database* IngestDifferentialTest::loaded_db_ = nullptr;
Database* IngestDifferentialTest::catalog_db_ = nullptr;
int64_t IngestDifferentialTest::generation_ = 0;

TEST_F(IngestDifferentialTest, ResolverOutputIsBitIdentical) {
  ASSERT_NE(loaded_db_, nullptr);
  ASSERT_NE(catalog_db_, nullptr);
  auto loaded_engine =
      Distinct::Create(*loaded_db_, DblpReferenceSpec(), UnsupervisedConfig());
  ASSERT_TRUE(loaded_engine.ok()) << loaded_engine.status().ToString();
  auto catalog_engine = Distinct::Create(*catalog_db_, DblpReferenceSpec(),
                                         UnsupervisedConfig());
  ASSERT_TRUE(catalog_engine.ok()) << catalog_engine.status().ToString();

  // Both engines index the same name groups in the same order.
  const auto& groups = loaded_engine->name_groups();
  ASSERT_EQ(groups.size(), catalog_engine->name_groups().size());

  int resolved = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    const auto& [name, refs] = groups[g];
    ASSERT_EQ(name, catalog_engine->name_groups()[g].first);
    ASSERT_EQ(refs, catalog_engine->name_groups()[g].second);
    if (refs.size() < 2 || refs.size() > 40) {
      continue;  // singletons are trivially identical; huge groups are slow
    }
    auto expected = loaded_engine->ResolveName(name);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto actual = catalog_engine->ResolveName(name);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();

    EXPECT_EQ(actual->refs, expected->refs) << "name " << name;
    EXPECT_EQ(actual->clustering.assignment, expected->clustering.assignment)
        << "name " << name;
    EXPECT_EQ(actual->clustering.num_clusters,
              expected->clustering.num_clusters)
        << "name " << name;
    ASSERT_EQ(actual->clustering.merges.size(),
              expected->clustering.merges.size())
        << "name " << name;
    for (size_t m = 0; m < expected->clustering.merges.size(); ++m) {
      EXPECT_EQ(actual->clustering.merges[m].into,
                expected->clustering.merges[m].into);
      EXPECT_EQ(actual->clustering.merges[m].from,
                expected->clustering.merges[m].from);
      // Exact double equality: the similarity graph must be the same
      // bits, not merely close.
      EXPECT_EQ(actual->clustering.merges[m].similarity,
                expected->clustering.merges[m].similarity)
          << "name " << name << " merge " << m;
    }
    if (++resolved >= 25) {
      break;  // bounded runtime; coverage across many group sizes
    }
  }
  EXPECT_GE(resolved, 10) << "corpus produced too few multi-ref names";
}

TEST_F(IngestDifferentialTest, CatalogGenerationStampsTheEngine) {
  ASSERT_NE(catalog_db_, nullptr);
  DistinctConfig config = UnsupervisedConfig();
  config.base_catalog_version = generation_;
  auto engine = Distinct::Create(*catalog_db_, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->catalog_version(), generation_);
  EXPECT_NE(generation_, 0);
}

}  // namespace
}  // namespace distinct
