// Streaming ingest differential: a catalog ingested from dblp.xml and
// materialized back through the mmap reader must be bit-identical to what
// the in-memory loader builds from the same bytes — same tables, same row
// order, same dictionary ids (compared on raw cell payloads).

#include <filesystem>
#include <set>
#include <string>

#include "catalog/format.h"
#include "catalog/ingest.h"
#include "catalog/reader.h"
#include "common/io_util.h"
#include "dblp/xml_corpus.h"
#include "dblp/xml_loader.h"
#include "gtest/gtest.h"
#include "relational/database.h"

namespace distinct {
namespace catalog {
namespace {

/// Every cell of every table, raw payloads plus decoded strings. Two
/// databases with equal dumps agree on schema, row order, dictionary ids,
/// and string content — the bit-identity contract.
std::string DumpDatabase(const Database& db) {
  std::string out;
  for (int t = 0; t < db.num_tables(); ++t) {
    const Table& table = db.table(t);
    out += table.DebugString() + "\n";
    for (int64_t row = 0; row < table.num_rows(); ++row) {
      for (int c = 0; c < table.num_columns(); ++c) {
        out += std::to_string(table.raw(row, c));
        if (table.column(c).type == ColumnType::kString &&
            !table.IsNull(row, c)) {
          out += "=" + table.GetString(row, c);
        }
        out += "|";
      }
      out += "\n";
    }
  }
  return out;
}

class CatalogIngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string base =
        ::testing::TempDir() + "/catalog_ingest_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    xml_path_ = base + ".xml";
    catalog_dir_ = base + ".catalog";
    std::filesystem::remove_all(catalog_dir_);
  }
  void TearDown() override {
    std::filesystem::remove(xml_path_);
    std::filesystem::remove_all(catalog_dir_);
  }

  XmlCorpusStats WriteCorpus(int64_t target_refs) {
    XmlCorpusConfig config;
    config.seed = 20070415;
    config.target_refs = target_refs;
    config.noise_element_prob = 0.05;  // make skip-counting observable
    auto stats = WriteSyntheticDblpXml(xml_path_, config);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return *stats;
  }

  std::string xml_path_;
  std::string catalog_dir_;
};

TEST_F(CatalogIngestTest, MaterializedCatalogIsBitIdenticalToLoader) {
  const XmlCorpusStats corpus = WriteCorpus(/*target_refs=*/2000);

  IngestOptions options;
  options.segment_papers = 128;  // force many segments
  options.read_chunk_bytes = 4096;
  auto stats = IngestDblpXml(xml_path_, catalog_dir_, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->records, corpus.papers);
  EXPECT_EQ(stats->summary.num_refs, corpus.refs);
  EXPECT_GT(stats->skipped, 0);  // <www>/<phdthesis> noise
  EXPECT_GT(stats->summary.num_segments, 4);
  EXPECT_EQ(stats->bytes_read, corpus.bytes);

  auto reader = CatalogReader::Open(catalog_dir_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto materialized = (*reader)->MaterializeDatabase();
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();

  auto loaded = LoadDblpXmlFile(xml_path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(materialized->records_loaded, loaded->records_loaded);
  EXPECT_EQ(materialized->records_skipped, loaded->records_skipped);
  EXPECT_EQ(DumpDatabase(materialized->db), DumpDatabase(loaded->db));
}

TEST_F(CatalogIngestTest, MinRefsFilterMatchesInMemoryLoader) {
  WriteCorpus(/*target_refs=*/2000);
  ASSERT_TRUE(IngestDblpXml(xml_path_, catalog_dir_).ok());
  auto reader = CatalogReader::Open(catalog_dir_);
  ASSERT_TRUE(reader.ok());

  XmlLoadOptions load_options;
  load_options.min_refs_per_author = 3;  // the paper's pruning rule
  auto materialized = (*reader)->MaterializeDatabase(load_options);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  auto loaded = LoadDblpXmlFile(xml_path_, load_options);
  ASSERT_TRUE(loaded.ok());

  // The filter must actually bite for this to mean anything.
  auto unfiltered = (*reader)->MaterializeDatabase();
  ASSERT_TRUE(unfiltered.ok());
  EXPECT_LT(materialized->db.TotalRows(), unfiltered->db.TotalRows());
  EXPECT_EQ(DumpDatabase(materialized->db), DumpDatabase(loaded->db));
}

TEST_F(CatalogIngestTest, BudgetExceededIsResourceExhaustedAndUncommitted) {
  WriteCorpus(/*target_refs=*/500);
  IngestOptions options;
  options.memory_budget_mb = 1;  // below the dictionaries' arena blocks
  auto stats = IngestDblpXml(xml_path_, catalog_dir_, options);
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted)
      << stats.status().ToString();
  // The failed ingest must not have committed a manifest.
  auto reader = CatalogReader::Open(catalog_dir_);
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
}

TEST_F(CatalogIngestTest, MissingXmlFileIsNotFound) {
  auto stats = IngestDblpXml(xml_path_ + ".nope", catalog_dir_);
  EXPECT_EQ(stats.status().code(), StatusCode::kNotFound);
}

TEST_F(CatalogIngestTest, TruncatedXmlFailsWithoutCommitting) {
  ASSERT_TRUE(WriteStringToFile(
                  xml_path_,
                  "<dblp><article key=\"a\"><author>A. Author</author>")
                  .ok());
  auto stats = IngestDblpXml(xml_path_, catalog_dir_);
  EXPECT_EQ(stats.status().code(), StatusCode::kDataLoss)
      << stats.status().ToString();
  auto reader = CatalogReader::Open(catalog_dir_);
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
}

TEST_F(CatalogIngestTest, XmlWithoutRootElementFailsWithoutCommitting) {
  for (const char* content : {"", "not xml, just a line of text\n"}) {
    SCOPED_TRACE(::testing::Message() << "content: '" << content << "'");
    ASSERT_TRUE(WriteStringToFile(xml_path_, content).ok());
    auto stats = IngestDblpXml(xml_path_, catalog_dir_);
    EXPECT_EQ(stats.status().code(), StatusCode::kDataLoss)
        << stats.status().ToString();
    auto reader = CatalogReader::Open(catalog_dir_);
    EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
  }
}

// A failed re-ingest must not cost the catalog it would have replaced:
// the new generation is written beside the committed one and commits only
// with the manifest rename, so every failure leaves the first generation
// readable and bit-identical.
TEST_F(CatalogIngestTest, FailedReingestKeepsPreviousGeneration) {
  WriteCorpus(/*target_refs=*/2000);
  IngestOptions options;
  options.segment_papers = 64;  // the truncated run flushes segments first
  auto first = IngestDblpXml(xml_path_, catalog_dir_, options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  std::string first_dump;
  {
    auto reader = CatalogReader::Open(catalog_dir_);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    auto db = (*reader)->MaterializeDatabase();
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    first_dump = DumpDatabase(db->db);
  }

  auto corpus = ReadFileToString(xml_path_);
  ASSERT_TRUE(corpus.ok());
  const std::string bad_xml = xml_path_ + ".bad";
  struct Attempt {
    const char* what;
    std::string xml;
    int64_t memory_budget_mb;
    StatusCode code;
  };
  const Attempt attempts[] = {
      {"truncated", corpus->substr(0, corpus->size() / 2), 0,
       StatusCode::kDataLoss},
      {"no root element", "not xml, just a line of text\n", 0,
       StatusCode::kDataLoss},
      {"over budget", *corpus, 1, StatusCode::kResourceExhausted},
  };
  for (const Attempt& attempt : attempts) {
    SCOPED_TRACE(attempt.what);
    ASSERT_TRUE(WriteStringToFile(bad_xml, attempt.xml).ok());
    IngestOptions bad_options = options;
    bad_options.memory_budget_mb = attempt.memory_budget_mb;
    auto stats = IngestDblpXml(bad_xml, catalog_dir_, bad_options);
    EXPECT_EQ(stats.status().code(), attempt.code)
        << stats.status().ToString();

    auto reader = CatalogReader::Open(catalog_dir_);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ((*reader)->generation(), first->summary.generation);
    auto db = (*reader)->MaterializeDatabase();
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(DumpDatabase(db->db), first_dump);
  }
  std::filesystem::remove(bad_xml);

  // The next good ingest commits and sweeps the first generation together
  // with the failed runs' debris.
  auto second = IngestDblpXml(xml_path_, catalog_dir_, options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const int64_t generation = second->summary.generation;
  std::set<std::string> expected = {
      kManifestFile, DictionaryFileName("authors", generation),
      DictionaryFileName("venues", generation),
      DictionaryFileName("titles", generation)};
  for (int64_t s = 0; s < second->summary.num_segments; ++s) {
    expected.insert(SegmentFileName(generation, s));
  }
  std::set<std::string> present;
  for (const auto& entry :
       std::filesystem::directory_iterator(catalog_dir_)) {
    present.insert(entry.path().filename().string());
  }
  EXPECT_EQ(present, expected);
}

}  // namespace
}  // namespace catalog
}  // namespace distinct
