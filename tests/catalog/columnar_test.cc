// On-disk columnar catalog: dictionary round-trip through mmap, segment
// column views, and the reopen/corruption contract — corrupt CRCs, foreign
// format versions and CRC-consistent files whose ids leave their
// dictionaries are rejected, seeded mutations of every file come back as
// a Status, a catalog killed mid-ingest (no manifest) reads as NotFound,
// and a fresh ingest over the debris succeeds and then sweeps it.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "catalog/format.h"
#include "catalog/ingest.h"
#include "catalog/reader.h"
#include "catalog/writer.h"
#include "common/crc32.h"
#include "common/io_util.h"
#include "common/rng.h"
#include "core/distinct.h"
#include "dblp/schema.h"
#include "dblp/xml_corpus.h"
#include "gtest/gtest.h"

namespace distinct {
namespace catalog {
namespace {

DblpRecord MakeRecord(std::vector<std::string> authors, std::string title,
                      std::string venue, int64_t year) {
  DblpRecord record;
  record.authors = std::move(authors);
  record.title = std::move(title);
  record.venue = std::move(venue);
  record.year = year;
  return record;
}

/// Five papers over three venues and four authors, venue of the last one
/// empty (exercising the unknown-venue substitution).
std::vector<DblpRecord> SampleRecords() {
  return {
      MakeRecord({"Wei Wang", "Jiong Yang"}, "P0", "VLDB", 1997),
      MakeRecord({"Wei Wang"}, "P1", "ICDE", 2001),
      MakeRecord({"Xuemin Lin", "Wei Wang"}, "P2", "VLDB", 1998),
      MakeRecord({"Philip S. Yu"}, "P3", "TKDE", 2003),
      MakeRecord({"Jiong Yang", "Philip S. Yu"}, "P4", "", -1),
  };
}

class ColumnarCatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/columnar_catalog_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes SampleRecords() into a fresh catalog at dir_.
  CatalogSummary WriteSampleCatalog(int64_t segment_papers = 1 << 16) {
    CatalogWriterOptions options;
    options.dir = dir_;
    options.segment_papers = segment_papers;
    auto writer = CatalogWriter::Create(options);
    EXPECT_TRUE(writer.ok()) << writer.status().ToString();
    for (const DblpRecord& record : SampleRecords()) {
      EXPECT_TRUE((*writer)->Add(record).ok());
    }
    auto summary = (*writer)->Finish(/*records_skipped=*/7);
    EXPECT_TRUE(summary.ok()) << summary.status().ToString();
    return *summary;
  }

  /// Flips one byte of `file` at `at` (negative counts from the end).
  void CorruptByte(const std::string& file, int64_t at) {
    const std::string path = dir_ + "/" + file;
    auto data = ReadFileToString(path);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    const size_t index = at >= 0 ? static_cast<size_t>(at)
                                 : data->size() + static_cast<size_t>(at);
    ASSERT_LT(index, data->size());
    (*data)[index] ^= 0x01;
    ASSERT_TRUE(WriteStringToFile(path, *data).ok());
  }

  /// Overwrites the `width`-byte little-endian integer at byte `at` of
  /// `file` with `value`, then recomputes the file's CRC-32C trailer and
  /// the CRC the manifest records for it: wrong contents that every CRC
  /// vouches for.
  void RewriteWithValidCrc(const std::string& file, size_t at,
                           uint64_t value, size_t width) {
    auto data = ReadFileToString(dir_ + "/" + file);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    ASSERT_LE(at + width, data->size() - 4);
    std::memcpy(data->data() + at, &value, width);
    WriteWithValidCrc(file, *std::move(data));
  }

  /// Writes `data` as `file` after recomputing its CRC-32C trailer (its
  /// last 4 bytes) and the CRC the manifest records for it.
  void WriteWithValidCrc(const std::string& file, std::string data) {
    ASSERT_GE(data.size(), 4u);
    const uint32_t crc = Crc32c(data.data(), data.size() - 4);
    std::memcpy(data.data() + data.size() - 4, &crc, 4);
    ASSERT_TRUE(WriteStringToFile(dir_ + "/" + file, data).ok());

    const std::string manifest_path = dir_ + "/" + kManifestFile;
    auto manifest = ReadFileToString(manifest_path);
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    const size_t entry = manifest->find("\"" + file + "\"");
    ASSERT_NE(entry, std::string::npos) << *manifest;
    const std::string key = "\"crc\":";
    const size_t begin = manifest->find(key, entry);
    ASSERT_NE(begin, std::string::npos) << *manifest;
    const size_t digits = begin + key.size();
    const size_t end = manifest->find_first_not_of("0123456789", digits);
    manifest->replace(digits, end - digits, std::to_string(crc));
    ASSERT_TRUE(WriteStringToFile(manifest_path, *manifest).ok());
  }

  /// Reads the little-endian u32 at byte `at` of `file`.
  uint32_t ReadU32(const std::string& file, size_t at) const {
    auto data = ReadFileToString(dir_ + "/" + file);
    EXPECT_TRUE(data.ok());
    uint32_t value = 0;
    if (data.ok() && at + 4 <= data->size()) {
      std::memcpy(&value, data->data() + at, 4);
    }
    return value;
  }

  /// Size of `file` in bytes.
  size_t FileSize(const std::string& file) const {
    return static_cast<size_t>(
        std::filesystem::file_size(dir_ + "/" + file));
  }

  /// File names in dir_, sorted.
  std::vector<std::string> DirectoryFiles() const {
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  /// The sorted file names of one committed generation.
  static std::vector<std::string> GenerationFiles(int64_t generation,
                                                  int64_t num_segments) {
    std::vector<std::string> names = {
        kManifestFile, DictionaryFileName("authors", generation),
        DictionaryFileName("venues", generation),
        DictionaryFileName("titles", generation)};
    for (int64_t s = 0; s < num_segments; ++s) {
      names.push_back(SegmentFileName(generation, s));
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  std::string dir_;
};

TEST_F(ColumnarCatalogTest, DictionaryRoundTripThroughMmap) {
  const CatalogSummary summary = WriteSampleCatalog();
  EXPECT_EQ(summary.num_papers, 5);
  EXPECT_EQ(summary.num_refs, 8);
  EXPECT_EQ(summary.records_skipped, 7);

  auto reader = CatalogReader::Open(dir_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->num_papers(), 5);
  EXPECT_EQ((*reader)->num_refs(), 8);
  EXPECT_EQ((*reader)->records_skipped(), 7);
  EXPECT_EQ((*reader)->generation(), summary.generation);

  // Ids are first-appearance order in the record stream.
  const DictView& authors = (*reader)->authors();
  ASSERT_EQ(authors.size(), 4u);
  EXPECT_EQ(authors.At(0), "Wei Wang");
  EXPECT_EQ(authors.At(1), "Jiong Yang");
  EXPECT_EQ(authors.At(2), "Xuemin Lin");
  EXPECT_EQ(authors.At(3), "Philip S. Yu");

  // Find inverts At for every id, and misses cleanly.
  for (uint32_t id = 0; id < authors.size(); ++id) {
    auto found = authors.Find(authors.At(id));
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, id);
  }
  EXPECT_FALSE(authors.Find("Nobody At All").has_value());
  EXPECT_FALSE(authors.Find("").has_value());

  const DictView& venues = (*reader)->venues();
  ASSERT_EQ(venues.size(), 4u);
  EXPECT_EQ(venues.At(0), "VLDB");
  EXPECT_EQ(venues.At(1), "ICDE");
  EXPECT_EQ(venues.At(2), "TKDE");
  EXPECT_EQ(venues.At(3), kUnknownVenue);  // empty venue substituted

  const DictView& titles = (*reader)->titles();
  ASSERT_EQ(titles.size(), 5u);
  for (uint32_t id = 0; id < titles.size(); ++id) {
    EXPECT_EQ(titles.At(id), "P" + std::to_string(id));
  }
}

TEST_F(ColumnarCatalogTest, SegmentColumnsRoundTrip) {
  WriteSampleCatalog(/*segment_papers=*/2);  // 5 papers -> 3 segments
  auto reader = CatalogReader::Open(dir_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  const auto& segments = (*reader)->segments();
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[0].paper_base, 0);
  EXPECT_EQ(segments[1].paper_base, 2);
  EXPECT_EQ(segments[2].paper_base, 4);

  const std::vector<DblpRecord> expected = SampleRecords();
  size_t paper = 0;
  for (const SegmentView& segment : segments) {
    ASSERT_EQ(segment.ref_begin.size(),
              static_cast<size_t>(segment.num_papers) + 1);
    for (int64_t p = 0; p < segment.num_papers; ++p, ++paper) {
      const DblpRecord& record = expected[paper];
      EXPECT_EQ(segment.year[static_cast<size_t>(p)], record.year);
      EXPECT_EQ((*reader)->titles().At(segment.title_id[static_cast<size_t>(p)]),
                record.title);
      const std::string venue =
          record.venue.empty() ? kUnknownVenue : record.venue;
      EXPECT_EQ((*reader)->venues().At(segment.venue_id[static_cast<size_t>(p)]),
                venue);
      const uint32_t begin = segment.ref_begin[static_cast<size_t>(p)];
      const uint32_t end = segment.ref_begin[static_cast<size_t>(p) + 1];
      ASSERT_EQ(end - begin, record.authors.size());
      for (uint32_t r = begin; r < end; ++r) {
        EXPECT_EQ((*reader)->authors().At(segment.author_id[r]),
                  record.authors[r - begin]);
      }
    }
  }
  EXPECT_EQ(paper, expected.size());
}

TEST_F(ColumnarCatalogTest, CorruptDictionaryBlobIsDataLoss) {
  const CatalogSummary summary = WriteSampleCatalog();
  // Inside the offsets/blob region.
  CorruptByte(DictionaryFileName("authors", summary.generation), 40);
  auto reader = CatalogReader::Open(dir_);
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss)
      << reader.status().ToString();
}

TEST_F(ColumnarCatalogTest, CorruptSegmentPayloadIsDataLoss) {
  const CatalogSummary summary = WriteSampleCatalog();
  CorruptByte(SegmentFileName(summary.generation, 0), 48);  // year column
  auto reader = CatalogReader::Open(dir_);
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST_F(ColumnarCatalogTest, CorruptCrcTrailerIsDataLoss) {
  const CatalogSummary summary = WriteSampleCatalog();
  // Last byte = CRC trailer.
  CorruptByte(DictionaryFileName("titles", summary.generation), -1);
  auto reader = CatalogReader::Open(dir_);
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST_F(ColumnarCatalogTest, ForeignFormatVersionIsFailedPrecondition) {
  const CatalogSummary summary = WriteSampleCatalog();
  // Version field, bytes [4, 8).
  CorruptByte(DictionaryFileName("venues", summary.generation), 4);
  auto reader = CatalogReader::Open(dir_);
  EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition)
      << reader.status().ToString();
  EXPECT_NE(reader.status().ToString().find("format version"),
            std::string::npos);
}

TEST_F(ColumnarCatalogTest, ForeignMagicIsDataLoss) {
  const CatalogSummary summary = WriteSampleCatalog();
  CorruptByte(SegmentFileName(summary.generation, 0), 0);
  auto reader = CatalogReader::Open(dir_);
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST_F(ColumnarCatalogTest, TruncatedSegmentIsDataLoss) {
  const CatalogSummary summary = WriteSampleCatalog();
  const std::string path = dir_ + "/" + SegmentFileName(summary.generation, 0);
  auto data = ReadFileToString(path);
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(
      WriteStringToFile(path, data->substr(0, data->size() / 2)).ok());
  auto reader = CatalogReader::Open(dir_);
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

// A CRC catches accidental damage only: a file rewritten with wrong
// contents and recomputed CRCs passes every framing check. Open() must
// still refuse ids that would index outside a mapping, here the author
// id that MaterializeDatabase would use as a histogram index.
TEST_F(ColumnarCatalogTest, AuthorIdOutsideDictionaryIsDataLoss) {
  const CatalogSummary summary = WriteSampleCatalog();
  const std::string segment = SegmentFileName(summary.generation, 0);
  // The last author id sits just before the CRC trailer.
  const size_t last_author = FileSize(segment) - 8;
  // Rewriting a value unchanged opens: the CRCs are recomputed right.
  RewriteWithValidCrc(segment, last_author, ReadU32(segment, last_author),
                      4);
  ASSERT_TRUE(CatalogReader::Open(dir_).ok());

  RewriteWithValidCrc(segment, last_author, 0x7ffffff0, 4);
  auto reader = CatalogReader::Open(dir_);
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss)
      << reader.status().ToString();
  EXPECT_NE(reader.status().message().find(segment), std::string::npos);
}

TEST_F(ColumnarCatalogTest, TitleAndVenueIdsOutsideDictionaryAreDataLoss) {
  constexpr size_t kPapers = 5;
  for (const size_t column : {0, 1}) {  // title_id, venue_id
    SCOPED_TRACE(column == 0 ? "title" : "venue");
    const CatalogSummary summary = WriteSampleCatalog();
    const std::string segment = SegmentFileName(summary.generation, 0);
    // Header, year[5], then title_id[5] and venue_id[5]; paper 3's id.
    RewriteWithValidCrc(segment, 32 + kPapers * 8 + column * kPapers * 4 + 12,
                        kPapers, 4);
    auto reader = CatalogReader::Open(dir_);
    EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss)
        << reader.status().ToString();
  }
}

TEST_F(ColumnarCatalogTest, DescendingRefRangesAreDataLoss) {
  constexpr size_t kPapers = 5;
  const size_t ref_begin = 32 + kPapers * 16;
  // ref_begin[0] must be 0; ref_begin[2] must not fall below ref_begin[1].
  for (const size_t index : {0, 2}) {
    SCOPED_TRACE(::testing::Message() << "ref_begin[" << index << "]");
    const CatalogSummary summary = WriteSampleCatalog();
    const std::string segment = SegmentFileName(summary.generation, 0);
    RewriteWithValidCrc(segment, ref_begin + index * 4,
                        index == 0 ? 1 : 0, 4);
    auto reader = CatalogReader::Open(dir_);
    EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss)
        << reader.status().ToString();
  }
}

TEST_F(ColumnarCatalogTest, DescendingDictionaryOffsetsAreDataLoss) {
  const CatalogSummary summary = WriteSampleCatalog();
  const std::string dict = DictionaryFileName("authors", summary.generation);
  // offsets[1], the end of string 0, far past every later offset.
  RewriteWithValidCrc(dict, 16 + 8, uint64_t{1} << 40, 8);
  auto reader = CatalogReader::Open(dir_);
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss)
      << reader.status().ToString();
  EXPECT_NE(reader.status().message().find(dict), std::string::npos);
}

TEST_F(ColumnarCatalogTest, SortedIdOutsideDictionaryIsDataLoss) {
  const CatalogSummary summary = WriteSampleCatalog();
  const std::string dict = DictionaryFileName("venues", summary.generation);
  // sorted_ids[] ends just before the CRC trailer; rewrite its last id.
  RewriteWithValidCrc(dict, FileSize(dict) - 8, 1000, 4);
  auto reader = CatalogReader::Open(dir_);
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss)
      << reader.status().ToString();
}

TEST_F(ColumnarCatalogTest, NeverIngestedDirectoryIsNotFound) {
  std::filesystem::create_directories(dir_);
  auto reader = CatalogReader::Open(dir_);
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
}

TEST_F(ColumnarCatalogTest, DeletedManifestIsNotFound) {
  WriteSampleCatalog();
  std::remove((dir_ + "/" + kManifestFile).c_str());
  auto reader = CatalogReader::Open(dir_);
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
}

TEST_F(ColumnarCatalogTest, ReopenAfterKillMidIngestThenReingest) {
  // A "killed" ingest: segments hit the disk (segment_papers=1 forces
  // per-record flushes) but Finish never runs, so no manifest exists.
  {
    CatalogWriterOptions options;
    options.dir = dir_;
    options.segment_papers = 1;
    auto writer = CatalogWriter::Create(options);
    ASSERT_TRUE(writer.ok());
    for (const DblpRecord& record : SampleRecords()) {
      ASSERT_TRUE((*writer)->Add(record).ok());
    }
    // Writer destroyed without Finish -- the crash.
  }
  EXPECT_EQ(DirectoryFiles().size(), SampleRecords().size());  // segments
  auto reader = CatalogReader::Open(dir_);
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);

  // A fresh ingest over the debris commits cleanly, then sweeps it.
  const CatalogSummary summary = WriteSampleCatalog();
  auto reopened = CatalogReader::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_papers(), 5);
  EXPECT_EQ((*reopened)->generation(), summary.generation);
  // The stale per-record segments are gone; only the fresh single segment
  // plus dictionaries and manifest remain.
  EXPECT_EQ(DirectoryFiles(), GenerationFiles(summary.generation, 1));
}

TEST_F(ColumnarCatalogTest, EachIngestGetsADistinctNonZeroGeneration) {
  const CatalogSummary first = WriteSampleCatalog();
  const CatalogSummary second = WriteSampleCatalog();
  EXPECT_NE(first.generation, 0);
  EXPECT_NE(second.generation, 0);
  EXPECT_NE(first.generation, second.generation);
}

// Seeded mutations of every file of a small ingested catalog: byte flips,
// truncations and extensions, written as they fall or under recomputed
// CRCs. Open answers each with a Status, and a mutated binary file whose
// CRCs were left alone never opens. A catalog that does open materializes
// and builds an engine or fails with a Status: never a crash.
TEST_F(ColumnarCatalogTest, SeededMutationsFailWithAStatusOrOpen) {
  const std::string xml_path = dir_ + ".xml";
  XmlCorpusConfig corpus;
  corpus.seed = 20261019;
  corpus.target_refs = 200;
  ASSERT_TRUE(WriteSyntheticDblpXml(xml_path, corpus).ok());
  IngestOptions ingest;
  ingest.segment_papers = 48;  // several segments
  ASSERT_TRUE(IngestDblpXml(xml_path, dir_, ingest).ok());
  std::filesystem::remove(xml_path);

  std::map<std::string, std::string> pristine;
  for (const std::string& file : DirectoryFiles()) {
    auto bytes = ReadFileToString(dir_ + "/" + file);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    pristine[file] = *std::move(bytes);
  }
  ASSERT_GE(pristine.size(), 6u);  // manifest, 3 dictionaries, segments

  DistinctConfig config;
  config.supervised = false;
  config.promotions = DblpDefaultPromotions();
  Rng rng(20261019);
  int opened = 0;
  int created = 0;
  for (const auto& [file, original] : pristine) {
    const bool binary = file != kManifestFile;
    for (int m = 0; m < 100; ++m) {
      std::string data = original;
      const int64_t size = static_cast<int64_t>(data.size());
      switch (rng.UniformInt(0, 2)) {
        case 0:  // flip 1-3 bytes
          for (int64_t n = rng.UniformInt(1, 3); n > 0; --n) {
            data[static_cast<size_t>(rng.UniformInt(0, size - 1))] ^=
                static_cast<char>(rng.UniformInt(1, 255));
          }
          break;
        case 1:  // truncate
          data.resize(static_cast<size_t>(rng.UniformInt(0, size - 1)));
          break;
        default:  // extend
          for (int64_t n = rng.UniformInt(1, 16); n > 0; --n) {
            data.push_back(static_cast<char>(rng.UniformInt(0, 255)));
          }
      }
      const bool recompute = binary && data.size() >= 4 && rng.Bernoulli(0.5);
      const std::string context = file + " mutation " + std::to_string(m) +
                                  (recompute ? " (CRCs recomputed)" : "");
      if (recompute) {
        WriteWithValidCrc(file, data);
      } else {
        ASSERT_TRUE(WriteStringToFile(dir_ + "/" + file, data).ok());
      }

      {  // the mapping is gone before the files are restored
        auto reader = CatalogReader::Open(dir_);
        if (!reader.ok()) {
          EXPECT_FALSE(reader.status().message().empty()) << context;
        } else {
          EXPECT_FALSE(binary && !recompute && data != original) << context;
          ++opened;
          auto materialized = (*reader)->MaterializeDatabase();
          if (materialized.ok()) {
            auto engine = Distinct::Create(materialized->db,
                                           DblpReferenceSpec(), config);
            created += engine.ok() ? 1 : 0;
          }
        }
      }
      ASSERT_TRUE(WriteStringToFile(dir_ + "/" + file, original).ok());
      ASSERT_TRUE(WriteStringToFile(dir_ + "/" + kManifestFile,
                                    pristine.at(kManifestFile))
                      .ok());
    }
  }
  // Some mutations must reach the materializer and the engine for the
  // test to mean anything.
  EXPECT_GT(opened, 0);
  EXPECT_GT(created, 0);
}

TEST_F(ColumnarCatalogTest, TinyBudgetIsResourceExhausted) {
  CatalogWriterOptions options;
  options.dir = dir_;
  options.memory_budget_bytes = 4 << 10;  // far below one arena block
  auto writer = CatalogWriter::Create(options);
  ASSERT_TRUE(writer.ok());
  const Status status = (*writer)->Add(SampleRecords()[0]);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
      << status.ToString();
}

}  // namespace
}  // namespace catalog
}  // namespace distinct
