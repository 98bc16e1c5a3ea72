// Streaming ingest: dblp.xml file -> columnar catalog directory.
//
// Drives the push parser (xml/XmlStreamParser) with fixed-size reads
// through common/io_util's ReadFdSome, assembles records with the same
// DblpRecordHandler the in-memory loader uses, and hands each record to
// the CatalogWriter. Peak memory is the read chunk, the parser's bounded
// carry-over buffer, the dictionaries, and one open segment — independent
// of document size, which is the point: a multi-GB dblp.xml ingests under
// the same --scan-memory-mb budget the resolver runs with
// (IngestOptions::memory_budget_mb here, ShardedScanOptions and
// ServiceOptions::memory_budget_mb there).

#ifndef DISTINCT_CATALOG_INGEST_H_
#define DISTINCT_CATALOG_INGEST_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "catalog/writer.h"
#include "common/status.h"

namespace distinct {
namespace catalog {

struct IngestOptions {
  /// Papers per column segment (CatalogWriterOptions::segment_papers).
  int64_t segment_papers = 1 << 16;
  /// Working-set budget in MiB (dictionaries + open segment); 0 = none.
  /// Wired to --scan-memory-mb by the CLI so ingest admission follows the
  /// same budget as the scan.
  int64_t memory_budget_mb = 0;
  /// Bytes per read(2) into the parser.
  size_t read_chunk_bytes = 256 * 1024;
  /// Largest single XML construct the parser will buffer.
  size_t max_token_bytes = 1 << 20;
};

struct IngestStats {
  int64_t bytes_read = 0;
  int64_t records = 0;
  int64_t skipped = 0;
  CatalogSummary summary;
};

/// Streams `xml_path` into a fresh catalog generation at `catalog_dir`.
/// Any failure (I/O, malformed XML, budget, disk) commits nothing: a later
/// Open reads the directory's previous generation, or refuses a directory
/// that never held one.
StatusOr<IngestStats> IngestDblpXml(const std::string& xml_path,
                                    const std::string& catalog_dir,
                                    const IngestOptions& options = {});

}  // namespace catalog
}  // namespace distinct

#endif  // DISTINCT_CATALOG_INGEST_H_
