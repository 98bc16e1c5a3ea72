#include "catalog/reader.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "catalog/format.h"
#include "common/crc32.h"
#include "common/io_util.h"
#include "dblp/schema.h"
#include "obs/json_reader.h"

namespace distinct {
namespace catalog {

namespace {

uint32_t LoadU32(const char* bytes) {
  uint32_t value;
  std::memcpy(&value, bytes, 4);
  return value;
}

uint64_t LoadU64(const char* bytes) {
  uint64_t value;
  std::memcpy(&value, bytes, 8);
  return value;
}

/// Validates the (magic, version) header and the CRC-32C trailer shared by
/// every catalog file, and cross-checks the CRC recorded in the manifest.
Status CheckFraming(std::string_view data, const std::string& file,
                    uint32_t expected_magic, uint32_t expected_crc) {
  if (data.size() < 12) {
    return DataLossError("catalog: '" + file + "' is truncated (" +
                         std::to_string(data.size()) + " bytes)");
  }
  if (LoadU32(data.data()) != expected_magic) {
    return DataLossError("catalog: '" + file + "' has a foreign magic");
  }
  const uint32_t version = LoadU32(data.data() + 4);
  if (version != kCatalogFormatVersion) {
    return FailedPreconditionError(
        "catalog: '" + file + "' is format version " +
        std::to_string(version) + ", this build reads version " +
        std::to_string(kCatalogFormatVersion));
  }
  const uint32_t stored = LoadU32(data.data() + data.size() - 4);
  const uint32_t actual = Crc32c(data.data(), data.size() - 4);
  if (stored != actual || stored != expected_crc) {
    return DataLossError("catalog: CRC mismatch in '" + file +
                         "' (stored " + std::to_string(stored) +
                         ", computed " + std::to_string(actual) +
                         ", manifest " + std::to_string(expected_crc) + ")");
  }
  return Status::Ok();
}

StatusOr<int64_t> ManifestInt(const obs::JsonValue& object, const char* key) {
  return obs::RequireInt(object, key, "catalog manifest");
}

StatusOr<std::string> ManifestString(const obs::JsonValue& object,
                                     const char* key) {
  const obs::JsonValue* value = object.Find(key);
  if (value == nullptr ||
      value->kind != obs::JsonValue::Kind::kString) {
    return DataLossError(std::string("catalog manifest: missing string '") +
                         key + "'");
  }
  return value->string_value;
}

}  // namespace

std::string_view DictView::At(uint32_t id) const {
  const uint64_t begin = offsets_[id];
  const uint64_t end = offsets_[id + 1];
  return std::string_view(blob_ + begin, end - begin);
}

std::optional<uint32_t> DictView::Find(std::string_view text) const {
  size_t lo = 0;
  size_t hi = count_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (At(sorted_ids_[mid]) < text) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < count_ && At(sorted_ids_[lo]) == text) {
    return sorted_ids_[lo];
  }
  return std::nullopt;
}

Status CatalogReader::OpenDictionary(const std::string& dir,
                                     const std::string& file,
                                     int64_t expected_count,
                                     uint32_t expected_crc, DictView* view) {
  auto mapped = MappedFile::Open(dir + "/" + file, "catalog");
  DISTINCT_RETURN_IF_ERROR(mapped.status());
  const std::string_view data = mapped->view();
  DISTINCT_RETURN_IF_ERROR(
      CheckFraming(data, file, kDictMagic, expected_crc));
  const size_t offsets_pos = 16;
  // The smallest dictionary: header, offsets[0], CRC.
  if (data.size() < offsets_pos + 8 + 4) {
    return DataLossError("catalog: '" + file + "' is truncated");
  }
  const uint64_t count = LoadU64(data.data() + 8);
  if (static_cast<int64_t>(count) != expected_count) {
    return DataLossError("catalog: '" + file + "' holds " +
                         std::to_string(count) + " strings, manifest says " +
                         std::to_string(expected_count));
  }
  // Compared by division first, so a hostile count cannot overflow the
  // byte arithmetic below.
  if (count >= (data.size() - offsets_pos - 4) / 8) {
    return DataLossError("catalog: '" + file + "' is truncated");
  }
  const size_t offsets_bytes = (count + 1) * 8;
  const uint64_t* offsets =
      reinterpret_cast<const uint64_t*>(data.data() + offsets_pos);
  const uint64_t blob_bytes = offsets[count];
  if (blob_bytes > data.size() - offsets_pos - offsets_bytes - 4) {
    return DataLossError("catalog: '" + file +
                         "' string offsets end past the file");
  }
  size_t sorted_pos = offsets_pos + offsets_bytes + blob_bytes;
  sorted_pos += (8 - sorted_pos % 8) % 8;
  if (data.size() != sorted_pos + count * 4 + 4) {
    return DataLossError("catalog: '" + file + "' has inconsistent framing");
  }
  // The CRC catches accidental damage only; a file written with wrong
  // contents and a matching CRC must still not index outside the mapping.
  for (uint64_t id = 0; id < count; ++id) {
    if (offsets[id] > offsets[id + 1]) {
      return DataLossError("catalog: '" + file +
                           "' string offsets descend at id " +
                           std::to_string(id));
    }
  }
  const uint32_t* sorted_ids =
      reinterpret_cast<const uint32_t*>(data.data() + sorted_pos);
  for (uint64_t i = 0; i < count; ++i) {
    if (sorted_ids[i] >= count) {
      return DataLossError("catalog: '" + file + "' sorted id " +
                           std::to_string(sorted_ids[i]) + " is not below " +
                           std::to_string(count));
    }
  }
  view->count_ = count;
  view->offsets_ = offsets;
  view->blob_ = data.data() + offsets_pos + offsets_bytes;
  view->sorted_ids_ = sorted_ids;
  mapped_bytes_ += static_cast<int64_t>(data.size());
  mappings_.push_back(*std::move(mapped));
  return Status::Ok();
}

Status CatalogReader::OpenSegment(const std::string& dir,
                                  const std::string& file, int64_t paper_base,
                                  int64_t papers, int64_t refs,
                                  uint32_t expected_crc) {
  auto mapped = MappedFile::Open(dir + "/" + file, "catalog");
  DISTINCT_RETURN_IF_ERROR(mapped.status());
  const std::string_view data = mapped->view();
  DISTINCT_RETURN_IF_ERROR(
      CheckFraming(data, file, kSegmentMagic, expected_crc));
  if (data.size() < 32 + 4) {
    return DataLossError("catalog: '" + file + "' is truncated");
  }
  const int64_t stored_base = static_cast<int64_t>(LoadU64(data.data() + 8));
  const int64_t stored_papers =
      static_cast<int64_t>(LoadU64(data.data() + 16));
  const int64_t stored_refs = static_cast<int64_t>(LoadU64(data.data() + 24));
  if (stored_base != paper_base || stored_papers != papers ||
      stored_refs != refs) {
    return DataLossError("catalog: '" + file +
                         "' header disagrees with the manifest");
  }
  // Every paper takes at least 8 bytes and every reference 4, so counts
  // past these bounds cannot match the size (and would overflow it).
  if (papers < 0 || refs < 0 ||
      static_cast<uint64_t>(papers) > data.size() / 8 ||
      static_cast<uint64_t>(refs) > data.size() / 4) {
    return DataLossError("catalog: '" + file + "' has inconsistent framing");
  }
  const size_t expected_size = 32 + static_cast<size_t>(papers) * 8 +
                               (static_cast<size_t>(papers) * 2 +
                                static_cast<size_t>(papers) + 1 +
                                static_cast<size_t>(refs)) *
                                   4 +
                               4;
  if (data.size() != expected_size) {
    return DataLossError("catalog: '" + file + "' has inconsistent framing");
  }

  SegmentView view;
  view.paper_base = paper_base;
  view.num_papers = papers;
  view.num_refs = refs;
  const char* cursor = data.data() + 32;
  view.year = std::span<const int64_t>(
      reinterpret_cast<const int64_t*>(cursor), papers);
  cursor += papers * 8;
  view.title_id = std::span<const uint32_t>(
      reinterpret_cast<const uint32_t*>(cursor), papers);
  cursor += papers * 4;
  view.venue_id = std::span<const uint32_t>(
      reinterpret_cast<const uint32_t*>(cursor), papers);
  cursor += papers * 4;
  view.ref_begin = std::span<const uint32_t>(
      reinterpret_cast<const uint32_t*>(cursor), papers + 1);
  cursor += (papers + 1) * 4;
  view.author_id = std::span<const uint32_t>(
      reinterpret_cast<const uint32_t*>(cursor), refs);
  if (view.ref_begin[papers] != static_cast<uint32_t>(refs)) {
    return DataLossError("catalog: '" + file + "' ref ranges are torn");
  }
  // Contents the CRC cannot vouch for (a matching CRC may be recomputed
  // over wrong contents): every id inside its dictionary, which Open()
  // maps before the segments, and ref ranges ascending from 0.
  if (view.ref_begin[0] != 0) {
    return DataLossError("catalog: '" + file + "' ref ranges are torn");
  }
  for (int64_t p = 0; p < papers; ++p) {
    if (view.ref_begin[p] > view.ref_begin[p + 1]) {
      return DataLossError("catalog: '" + file + "' ref ranges are torn");
    }
    if (view.title_id[p] >= titles_.size() ||
        view.venue_id[p] >= venues_.size()) {
      return DataLossError("catalog: '" + file + "' paper " +
                           std::to_string(paper_base + p) +
                           " has a title or venue id outside its dictionary");
    }
  }
  for (int64_t r = 0; r < refs; ++r) {
    if (view.author_id[r] >= authors_.size()) {
      return DataLossError("catalog: '" + file + "' reference " +
                           std::to_string(r) + " has author id " +
                           std::to_string(view.author_id[r]) +
                           " outside its dictionary");
    }
  }
  segments_.push_back(view);
  mapped_bytes_ += static_cast<int64_t>(data.size());
  mappings_.push_back(*std::move(mapped));
  return Status::Ok();
}

StatusOr<std::unique_ptr<CatalogReader>> CatalogReader::Open(
    const std::string& dir) {
  auto manifest_text =
      ReadFileToString(dir + "/" + kManifestFile, "catalog");
  if (!manifest_text.ok()) {
    if (manifest_text.status().code() == StatusCode::kNotFound) {
      return NotFoundError("catalog: no manifest in '" + dir +
                           "' (never ingested, or ingest was interrupted "
                           "before commit)");
    }
    return manifest_text.status();
  }
  obs::JsonReader json_reader(*manifest_text, "catalog manifest");
  auto root_or = json_reader.Parse();
  DISTINCT_RETURN_IF_ERROR(root_or.status());
  const obs::JsonValue root = *std::move(root_or);

  auto format_version = ManifestInt(root, "format_version");
  DISTINCT_RETURN_IF_ERROR(format_version.status());
  if (*format_version != kCatalogFormatVersion) {
    return FailedPreconditionError(
        "catalog: manifest is format version " +
        std::to_string(*format_version) + ", this build reads version " +
        std::to_string(kCatalogFormatVersion));
  }

  std::unique_ptr<CatalogReader> reader(new CatalogReader());
  auto generation = ManifestInt(root, "generation");
  auto num_papers = ManifestInt(root, "num_papers");
  auto num_refs = ManifestInt(root, "num_refs");
  auto skipped = ManifestInt(root, "records_skipped");
  DISTINCT_RETURN_IF_ERROR(generation.status());
  DISTINCT_RETURN_IF_ERROR(num_papers.status());
  DISTINCT_RETURN_IF_ERROR(num_refs.status());
  DISTINCT_RETURN_IF_ERROR(skipped.status());
  reader->generation_ = *generation;
  reader->num_papers_ = *num_papers;
  reader->num_refs_ = *num_refs;
  reader->records_skipped_ = *skipped;

  const obs::JsonValue* dicts = root.Find("dictionaries");
  if (dicts == nullptr || dicts->kind != obs::JsonValue::Kind::kObject) {
    return DataLossError("catalog manifest: missing 'dictionaries'");
  }
  struct DictSlot {
    const char* key;
    DictView* view;
  };
  const DictSlot slots[3] = {{"authors", &reader->authors_},
                             {"venues", &reader->venues_},
                             {"titles", &reader->titles_}};
  for (const DictSlot& slot : slots) {
    const obs::JsonValue* entry = dicts->Find(slot.key);
    if (entry == nullptr) {
      return DataLossError(std::string("catalog manifest: missing '") +
                           slot.key + "' dictionary");
    }
    auto file = ManifestString(*entry, "file");
    auto count = ManifestInt(*entry, "count");
    auto crc = ManifestInt(*entry, "crc");
    DISTINCT_RETURN_IF_ERROR(file.status());
    DISTINCT_RETURN_IF_ERROR(count.status());
    DISTINCT_RETURN_IF_ERROR(crc.status());
    DISTINCT_RETURN_IF_ERROR(reader->OpenDictionary(
        dir, *file, *count, static_cast<uint32_t>(*crc), slot.view));
  }

  const obs::JsonValue* segments = root.Find("segments");
  if (segments == nullptr ||
      segments->kind != obs::JsonValue::Kind::kArray) {
    return DataLossError("catalog manifest: missing 'segments'");
  }
  int64_t seen_papers = 0;
  int64_t seen_refs = 0;
  for (const obs::JsonValue& entry : segments->items) {
    auto file = ManifestString(entry, "file");
    auto paper_base = ManifestInt(entry, "paper_base");
    auto papers = ManifestInt(entry, "num_papers");
    auto refs = ManifestInt(entry, "num_refs");
    auto crc = ManifestInt(entry, "crc");
    DISTINCT_RETURN_IF_ERROR(file.status());
    DISTINCT_RETURN_IF_ERROR(paper_base.status());
    DISTINCT_RETURN_IF_ERROR(papers.status());
    DISTINCT_RETURN_IF_ERROR(refs.status());
    DISTINCT_RETURN_IF_ERROR(crc.status());
    if (*paper_base != seen_papers) {
      return DataLossError("catalog manifest: segment '" + *file +
                           "' is out of order");
    }
    DISTINCT_RETURN_IF_ERROR(reader->OpenSegment(
        dir, *file, *paper_base, *papers, *refs,
        static_cast<uint32_t>(*crc)));
    seen_papers += *papers;
    seen_refs += *refs;
  }
  if (seen_papers != reader->num_papers_ || seen_refs != reader->num_refs_) {
    return DataLossError(
        "catalog manifest: segment totals disagree with the header counts");
  }
  return reader;
}

StatusOr<XmlLoadResult> CatalogReader::MaterializeDatabase(
    const XmlLoadOptions& options) const {
  // Pass 1 of dblp/xml_loader.cc's BuildDatabase: reference counts for the
  // min_refs_per_author filter, here a flat histogram over catalog ids.
  std::vector<int64_t> refs_per_author(authors_.size(), 0);
  for (const SegmentView& segment : segments_) {
    for (uint32_t author : segment.author_id) {
      ++refs_per_author[author];
    }
  }

  auto db_or = MakeEmptyDblpDatabase();
  DISTINCT_RETURN_IF_ERROR(db_or.status());
  Database db = *std::move(db_or);
  Table* authors = *db.FindMutableTable(kAuthorsTable);
  Table* conferences = *db.FindMutableTable(kConferencesTable);
  Table* proceedings = *db.FindMutableTable(kProceedingsTable);
  Table* publications = *db.FindMutableTable(kPublicationsTable);
  Table* publish = *db.FindMutableTable(kPublishTable);

  // The venue dictionary's id order IS the loader's conference-interning
  // order (first appearance in the record stream), so catalog venue ids can
  // be used as conference surrogate keys directly. Author ids need the
  // remap below because the filter changes which names get table rows.
  std::vector<int64_t> author_row(authors_.size(), -1);
  std::vector<bool> venue_seen(venues_.size(), false);
  std::unordered_map<int64_t, int64_t> proc_ids;  // (conf<<16|year) -> proc
  int64_t next_proc = 0;
  int64_t next_pub = 0;
  int64_t next_author = 0;

  for (const SegmentView& segment : segments_) {
    for (int64_t p = 0; p < segment.num_papers; ++p) {
      const uint32_t conf_id = segment.venue_id[p];
      if (!venue_seen[conf_id]) {
        venue_seen[conf_id] = true;
        DISTINCT_RETURN_IF_ERROR(
            conferences
                ->AppendRow({Value::Int(conf_id),
                             Value::Str(std::string(venues_.At(conf_id))),
                             Value::Str("unknown-publisher")})
                .status());
      }

      const int64_t raw_year = segment.year[p];
      const int64_t year = raw_year >= 0 ? raw_year : 0;
      const int64_t proc_key =
          (static_cast<int64_t>(conf_id) << 16) | (year & 0xffff);
      auto [it, inserted] = proc_ids.emplace(proc_key, next_proc);
      if (inserted) {
        DISTINCT_RETURN_IF_ERROR(
            proceedings
                ->AppendRow({Value::Int(next_proc), Value::Int(conf_id),
                             Value::Int(year), Value::Null()})
                .status());
        ++next_proc;
      }
      const int64_t proc_id = it->second;

      const int64_t paper_id = segment.paper_base + p;
      DISTINCT_RETURN_IF_ERROR(
          publications
              ->AppendRow({Value::Int(paper_id),
                           Value::Str(std::string(
                               titles_.At(segment.title_id[p]))),
                           Value::Int(proc_id)})
              .status());

      for (uint32_t r = segment.ref_begin[p]; r < segment.ref_begin[p + 1];
           ++r) {
        const uint32_t author = segment.author_id[r];
        if (options.min_refs_per_author > 0 &&
            refs_per_author[author] < options.min_refs_per_author) {
          continue;
        }
        if (author_row[author] < 0) {
          author_row[author] = next_author++;
          DISTINCT_RETURN_IF_ERROR(
              authors
                  ->AppendRow({Value::Int(author_row[author]),
                               Value::Str(std::string(authors_.At(author)))})
                  .status());
        }
        DISTINCT_RETURN_IF_ERROR(
            publish
                ->AppendRow({Value::Int(next_pub++),
                             Value::Int(author_row[author]),
                             Value::Int(paper_id)})
                .status());
      }
    }
  }

  XmlLoadResult result;
  result.db = std::move(db);
  result.records_loaded = num_papers_;
  result.records_skipped = records_skipped_;
  return result;
}

}  // namespace catalog
}  // namespace distinct
