// Streaming writer for the on-disk columnar catalog (catalog/format.h).
//
// Records arrive one at a time from the SAX pipeline; the writer
// dictionary-encodes the string fields into arena-backed intern tables,
// buffers fixed-width columns for one segment, and flushes each full
// segment with the durable tmp+fsync+rename protocol. Nothing about the
// document is ever materialised: peak memory is the dictionaries (which
// must stay resident for encoding) plus one segment buffer, and both are
// registered with the MemoryTracker and checked against an optional byte
// budget on every Add.

#ifndef DISTINCT_CATALOG_WRITER_H_
#define DISTINCT_CATALOG_WRITER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "dblp/dblp_records.h"
#include "obs/memory.h"

namespace distinct {
namespace catalog {

struct CatalogWriterOptions {
  std::string dir;
  /// Papers per column segment. Smaller segments bound the flush buffer;
  /// larger ones reduce file count and per-segment overhead.
  int64_t segment_papers = 1 << 16;
  /// Admission budget for the resident working set (dictionaries + the
  /// open segment buffer). 0 disables the check.
  int64_t memory_budget_bytes = 0;
};

/// What one finished ingest produced; mirrored into MANIFEST.json.
struct CatalogSummary {
  int64_t generation = 0;  // stamps checkpoints taken over this catalog
  int64_t num_papers = 0;
  int64_t num_refs = 0;
  int64_t num_segments = 0;
  int64_t num_authors = 0;
  int64_t num_venues = 0;
  int64_t num_titles = 0;
  int64_t records_skipped = 0;
  int64_t bytes_written = 0;
};

class CatalogWriter {
 public:
  /// Creates `options.dir` if needed. Removes nothing: the new
  /// generation's files carry its own stamp (catalog/format.h), and the
  /// previous generation stays readable until Finish commits.
  static StatusOr<std::unique_ptr<CatalogWriter>> Create(
      CatalogWriterOptions options);

  ~CatalogWriter();
  CatalogWriter(const CatalogWriter&) = delete;
  CatalogWriter& operator=(const CatalogWriter&) = delete;

  /// Encodes one record into the open segment, flushing it to disk when
  /// full. ResourceExhausted when the working set exceeds the budget.
  Status Add(const DblpRecord& record);

  /// Flushes the tail segment and dictionaries, commits the catalog by
  /// renaming MANIFEST.json into place, then sweeps every catalog file the
  /// new manifest does not name (a failed sweep is logged, not returned:
  /// the commit stands). The writer is unusable after.
  StatusOr<CatalogSummary> Finish(int64_t records_skipped);

  int64_t papers() const { return num_papers_; }
  int64_t refs() const { return num_refs_; }

 private:
  class InternTable;
  struct SegmentManifest;

  explicit CatalogWriter(CatalogWriterOptions options);

  Status CheckBudget() const;
  Status FlushSegment();
  Status WriteCatalogFile(const std::string& file_name,
                          std::string payload, uint32_t* crc_out,
                          int64_t* bytes_out);
  Status WriteDictionary(const std::string& file_name,
                         const InternTable& table, uint32_t* crc_out,
                         int64_t* bytes_out);

  CatalogWriterOptions options_;
  int64_t generation_ = 0;
  bool finished_ = false;

  std::unique_ptr<InternTable> authors_;
  std::unique_ptr<InternTable> venues_;
  std::unique_ptr<InternTable> titles_;

  // Open-segment column buffers.
  std::vector<int64_t> year_;
  std::vector<uint32_t> title_id_;
  std::vector<uint32_t> venue_id_;
  std::vector<uint32_t> ref_begin_;
  std::vector<uint32_t> author_id_;
  obs::TrackedBytes segment_bytes_;

  int64_t segment_paper_base_ = 0;
  int64_t num_papers_ = 0;
  int64_t num_refs_ = 0;
  int64_t bytes_written_ = 0;
  std::vector<SegmentManifest> segments_;
};

}  // namespace catalog
}  // namespace distinct

#endif  // DISTINCT_CATALOG_WRITER_H_
