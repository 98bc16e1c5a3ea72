#include "catalog/writer.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "catalog/format.h"
#include "common/crc32.h"
#include "common/io_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "obs/json_writer.h"

namespace distinct {
namespace catalog {

namespace {

void AppendU32(std::string& out, uint32_t value) {
  char bytes[4];
  std::memcpy(bytes, &value, 4);
  out.append(bytes, 4);
}

void AppendU64(std::string& out, uint64_t value) {
  char bytes[8];
  std::memcpy(bytes, &value, 8);
  out.append(bytes, 8);
}

void AppendI64(std::string& out, int64_t value) {
  AppendU64(out, static_cast<uint64_t>(value));
}

/// A generation id that differs between any two ingests: wall-clock
/// nanoseconds xor pid, whitened through SplitMix64 so even back-to-back
/// ingests in one process diverge in every bit.
int64_t NewGeneration() {
  uint64_t state = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  state ^= static_cast<uint64_t>(::getpid()) << 32;
  static std::atomic<uint64_t> counter{0};
  state += counter.fetch_add(1, std::memory_order_relaxed) * 0x9e3779b9u;
  uint64_t generation =
      SplitMix64Next(state) & 0x7fffffffffffffffull;
  if (generation == 0) {
    generation = 1;
  }
  return static_cast<int64_t>(generation);
}

/// The stamp every data file of `generation` carries in its name.
std::string GenerationTag(int64_t generation) {
  char tag[17];
  std::snprintf(tag, sizeof(tag), "%016llx",
                static_cast<unsigned long long>(generation));
  return tag;
}

/// Removes the dictionaries, segments (of any generation or naming) and
/// .tmp files of unfinished writes in `dir` that are not in `committed`.
/// Runs after the commit, so a failure is logged, not returned: the new
/// generation stands either way.
void SweepUncommitted(const std::string& dir,
                      const std::unordered_set<std::string>& committed) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<fs::path> stale;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const bool catalog_file =
        name.ends_with(".tmp") || name.ends_with(".dict") ||
        (name.starts_with("segment-") && name.ends_with(".bin"));
    if (catalog_file && !committed.contains(name)) {
      stale.push_back(entry.path());
    }
  }
  if (ec) {
    DISTINCT_LOG(WARN) << "catalog: cannot list '" << dir
                       << "' for the sweep: " << ec.message();
  }
  for (const fs::path& path : stale) {
    if (!fs::remove(path, ec) && ec) {
      DISTINCT_LOG(WARN) << "catalog: cannot sweep '" << path.string()
                         << "': " << ec.message();
    }
  }
}

struct StringViewHash {
  using is_transparent = void;
  size_t operator()(std::string_view text) const {
    return std::hash<std::string_view>()(text);
  }
};

}  // namespace

struct CatalogWriter::SegmentManifest {
  std::string file;
  int64_t paper_base = 0;
  int64_t num_papers = 0;
  int64_t num_refs = 0;
  int64_t bytes = 0;
  uint32_t crc = 0;
};

/// Arena-backed intern table: ids are first-appearance order, strings live
/// in stable 1 MiB blocks so the index can key on string_view without
/// copies. For a DBLP-scale title column this halves resident bytes versus
/// the map<string> + vector<string> layout common/dictionary.h uses.
class CatalogWriter::InternTable {
 public:
  explicit InternTable(obs::MemoryTracker::Component component)
      : tracked_(component) {}

  uint32_t Intern(std::string_view text) {
    auto it = index_.find(text);
    if (it != index_.end()) {
      return it->second;
    }
    const std::string_view stored = Store(text);
    const uint32_t id = static_cast<uint32_t>(views_.size());
    views_.push_back(stored);
    index_.emplace(stored, id);
    Account();
    return id;
  }

  size_t size() const { return views_.size(); }
  std::string_view At(uint32_t id) const { return views_[id]; }
  int64_t tracked_bytes() const { return tracked_.bytes(); }

  /// Total string bytes (the serialized blob size).
  int64_t blob_bytes() const { return blob_bytes_; }

  /// Ids ordered by string ascending — the lookup permutation the
  /// dictionary file carries.
  std::vector<uint32_t> SortedIds() const {
    std::vector<uint32_t> ids(views_.size());
    for (uint32_t i = 0; i < ids.size(); ++i) {
      ids[i] = i;
    }
    std::sort(ids.begin(), ids.end(), [this](uint32_t a, uint32_t b) {
      return views_[a] < views_[b];
    });
    return ids;
  }

 private:
  static constexpr size_t kBlockBytes = 1 << 20;

  std::string_view Store(std::string_view text) {
    if (blocks_.empty() ||
        block_used_ + text.size() > blocks_.back().size()) {
      blocks_.emplace_back();
      blocks_.back().resize(std::max(kBlockBytes, text.size()));
      block_used_ = 0;
    }
    char* dest = blocks_.back().data() + block_used_;
    std::memcpy(dest, text.data(), text.size());
    block_used_ += text.size();
    blob_bytes_ += static_cast<int64_t>(text.size());
    return std::string_view(dest, text.size());
  }

  void Account() {
    // Arena blocks + the id vector + an estimate of the index's node and
    // bucket payload (string_view key, u32 value, hash bookkeeping).
    constexpr int64_t kIndexEntryBytes = 48;
    int64_t bytes = 0;
    for (const std::string& block : blocks_) {
      bytes += static_cast<int64_t>(block.size());
    }
    bytes += static_cast<int64_t>(views_.capacity() * sizeof(std::string_view));
    bytes += static_cast<int64_t>(index_.size()) * kIndexEntryBytes;
    tracked_.Set(bytes);
  }

  std::vector<std::string> blocks_;  // stable: never resized after fill
  size_t block_used_ = 0;
  int64_t blob_bytes_ = 0;
  std::vector<std::string_view> views_;  // id -> string
  std::unordered_map<std::string_view, uint32_t, StringViewHash,
                     std::equal_to<>>
      index_;
  obs::TrackedBytes tracked_;
};

std::string DictionaryFileName(std::string_view column, int64_t generation) {
  return std::string(column) + "-" + GenerationTag(generation) + ".dict";
}

std::string SegmentFileName(int64_t generation, int64_t index) {
  char name[48];
  std::snprintf(name, sizeof(name), "segment-%s-%06lld.bin",
                GenerationTag(generation).c_str(),
                static_cast<long long>(index));
  return name;
}

CatalogWriter::CatalogWriter(CatalogWriterOptions options)
    : options_(std::move(options)),
      generation_(NewGeneration()),
      authors_(std::make_unique<InternTable>(
          obs::MemoryTracker::kIngestDictionary)),
      venues_(std::make_unique<InternTable>(
          obs::MemoryTracker::kIngestDictionary)),
      titles_(std::make_unique<InternTable>(
          obs::MemoryTracker::kIngestDictionary)),
      segment_bytes_(obs::MemoryTracker::kCatalogSegment) {}

CatalogWriter::~CatalogWriter() = default;

StatusOr<std::unique_ptr<CatalogWriter>> CatalogWriter::Create(
    CatalogWriterOptions options) {
  if (options.dir.empty()) {
    return InvalidArgumentError("catalog: output directory is empty");
  }
  if (options.segment_papers <= 0) {
    return InvalidArgumentError("catalog: segment_papers must be positive");
  }
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return InternalError("catalog: cannot create directory '" + options.dir +
                         "': " + ec.message());
  }
  // Nothing is removed here: the committed generation stays readable
  // until Finish commits the new one. Every file the new generation writes
  // carries its fresh stamp, so none lands on a file the committed
  // manifest names.
  return std::unique_ptr<CatalogWriter>(new CatalogWriter(std::move(options)));
}

Status CatalogWriter::CheckBudget() const {
  if (options_.memory_budget_bytes <= 0) {
    return Status::Ok();
  }
  const int64_t resident = authors_->tracked_bytes() +
                           venues_->tracked_bytes() +
                           titles_->tracked_bytes() + segment_bytes_.bytes();
  if (resident > options_.memory_budget_bytes) {
    return ResourceExhaustedError(
        "catalog ingest: dictionary+segment working set " +
        std::to_string(resident >> 20) + " MiB exceeds the " +
        std::to_string(options_.memory_budget_bytes >> 20) +
        " MiB scan memory budget");
  }
  return Status::Ok();
}

Status CatalogWriter::Add(const DblpRecord& record) {
  if (finished_) {
    return FailedPreconditionError("catalog: writer already finished");
  }
  const std::string_view venue =
      record.venue.empty() ? std::string_view(kUnknownVenue)
                           : std::string_view(record.venue);
  if (ref_begin_.empty()) {
    ref_begin_.push_back(0);
  }
  venue_id_.push_back(venues_->Intern(venue));
  title_id_.push_back(titles_->Intern(record.title));
  year_.push_back(record.year);
  for (const std::string& author : record.authors) {
    author_id_.push_back(authors_->Intern(author));
  }
  ref_begin_.push_back(static_cast<uint32_t>(author_id_.size()));
  ++num_papers_;
  num_refs_ += static_cast<int64_t>(record.authors.size());

  segment_bytes_.Set(static_cast<int64_t>(
      year_.capacity() * sizeof(int64_t) +
      (title_id_.capacity() + venue_id_.capacity() + ref_begin_.capacity() +
       author_id_.capacity()) *
          sizeof(uint32_t)));
  DISTINCT_RETURN_IF_ERROR(CheckBudget());

  if (static_cast<int64_t>(year_.size()) >= options_.segment_papers) {
    return FlushSegment();
  }
  return Status::Ok();
}

Status CatalogWriter::WriteCatalogFile(const std::string& file_name,
                                       std::string payload, uint32_t* crc_out,
                                       int64_t* bytes_out) {
  const uint32_t crc = Crc32c(payload.data(), payload.size());
  AppendU32(payload, crc);
  DISTINCT_RETURN_IF_ERROR(ReplaceFileDurable(options_.dir + "/" + file_name,
                                              payload, "catalog"));
  if (crc_out != nullptr) {
    *crc_out = crc;
  }
  if (bytes_out != nullptr) {
    *bytes_out = static_cast<int64_t>(payload.size());
  }
  bytes_written_ += static_cast<int64_t>(payload.size());
  return Status::Ok();
}

Status CatalogWriter::FlushSegment() {
  const int64_t papers = static_cast<int64_t>(year_.size());
  if (papers == 0) {
    return Status::Ok();
  }
  const int64_t refs = static_cast<int64_t>(author_id_.size());

  std::string payload;
  payload.reserve(32 + year_.size() * 8 +
                  (title_id_.size() + venue_id_.size() + ref_begin_.size() +
                   author_id_.size()) *
                      4 +
                  4);
  AppendU32(payload, kSegmentMagic);
  AppendU32(payload, kCatalogFormatVersion);
  AppendU64(payload, static_cast<uint64_t>(segment_paper_base_));
  AppendU64(payload, static_cast<uint64_t>(papers));
  AppendU64(payload, static_cast<uint64_t>(refs));
  for (int64_t year : year_) {
    AppendI64(payload, year);
  }
  const auto append_u32s = [&payload](const std::vector<uint32_t>& column) {
    payload.append(reinterpret_cast<const char*>(column.data()),
                   column.size() * sizeof(uint32_t));
  };
  append_u32s(title_id_);
  append_u32s(venue_id_);
  append_u32s(ref_begin_);
  append_u32s(author_id_);

  SegmentManifest manifest;
  manifest.file =
      SegmentFileName(generation_, static_cast<int64_t>(segments_.size()));
  manifest.paper_base = segment_paper_base_;
  manifest.num_papers = papers;
  manifest.num_refs = refs;
  DISTINCT_RETURN_IF_ERROR(WriteCatalogFile(manifest.file, std::move(payload),
                                            &manifest.crc, &manifest.bytes));
  segments_.push_back(std::move(manifest));

  segment_paper_base_ += papers;
  year_.clear();
  title_id_.clear();
  venue_id_.clear();
  ref_begin_.clear();
  author_id_.clear();
  return Status::Ok();
}

Status CatalogWriter::WriteDictionary(const std::string& file_name,
                                      const InternTable& table,
                                      uint32_t* crc_out, int64_t* bytes_out) {
  const size_t count = table.size();
  std::string payload;
  payload.reserve(16 + (count + 1) * 8 +
                  static_cast<size_t>(table.blob_bytes()) + 8 + count * 4 + 4);
  AppendU32(payload, kDictMagic);
  AppendU32(payload, kCatalogFormatVersion);
  AppendU64(payload, count);
  uint64_t offset = 0;
  for (size_t id = 0; id < count; ++id) {
    AppendU64(payload, offset);
    offset += table.At(static_cast<uint32_t>(id)).size();
  }
  AppendU64(payload, offset);
  for (size_t id = 0; id < count; ++id) {
    const std::string_view text = table.At(static_cast<uint32_t>(id));
    payload.append(text.data(), text.size());
  }
  payload.append((8 - payload.size() % 8) % 8, '\0');
  const std::vector<uint32_t> sorted = table.SortedIds();
  payload.append(reinterpret_cast<const char*>(sorted.data()),
                 sorted.size() * sizeof(uint32_t));
  return WriteCatalogFile(file_name, std::move(payload), crc_out, bytes_out);
}

StatusOr<CatalogSummary> CatalogWriter::Finish(int64_t records_skipped) {
  if (finished_) {
    return FailedPreconditionError("catalog: writer already finished");
  }
  DISTINCT_RETURN_IF_ERROR(FlushSegment());

  struct DictManifest {
    std::string file;
    uint32_t crc = 0;
    int64_t bytes = 0;
    int64_t count = 0;
  };
  const char* dict_keys[3] = {"authors", "venues", "titles"};
  DictManifest dicts[3];
  const InternTable* tables[3] = {authors_.get(), venues_.get(),
                                  titles_.get()};
  for (int i = 0; i < 3; ++i) {
    dicts[i].file = DictionaryFileName(dict_keys[i], generation_);
    dicts[i].count = static_cast<int64_t>(tables[i]->size());
    DISTINCT_RETURN_IF_ERROR(WriteDictionary(dicts[i].file, *tables[i],
                                             &dicts[i].crc, &dicts[i].bytes));
  }

  obs::JsonWriter json;
  json.BeginObject();
  json.Key("format_version").Value(static_cast<int64_t>(kCatalogFormatVersion));
  json.Key("generation").Value(generation_);
  json.Key("num_papers").Value(num_papers_);
  json.Key("num_refs").Value(num_refs_);
  json.Key("records_skipped").Value(records_skipped);
  json.Key("dictionaries").BeginObject();
  for (int i = 0; i < 3; ++i) {
    json.Key(dict_keys[i]).BeginObject();
    json.Key("file").Value(dicts[i].file);
    json.Key("count").Value(dicts[i].count);
    json.Key("bytes").Value(dicts[i].bytes);
    json.Key("crc").Value(static_cast<int64_t>(dicts[i].crc));
    json.EndObject();
  }
  json.EndObject();
  json.Key("segments").BeginArray();
  for (const SegmentManifest& segment : segments_) {
    json.BeginObject();
    json.Key("file").Value(segment.file);
    json.Key("paper_base").Value(segment.paper_base);
    json.Key("num_papers").Value(segment.num_papers);
    json.Key("num_refs").Value(segment.num_refs);
    json.Key("bytes").Value(segment.bytes);
    json.Key("crc").Value(static_cast<int64_t>(segment.crc));
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  // The manifest commits the generation: the rename swaps the previous
  // manifest (if any) for this one in one step, so a crash before it
  // leaves the previous generation, and a crash after it the new one.
  DISTINCT_RETURN_IF_ERROR(ReplaceFileDurable(
      options_.dir + "/" + kManifestFile, json.str(), "catalog"));
  bytes_written_ += static_cast<int64_t>(json.str().size());
  finished_ = true;

  // Only now is the previous generation unreferenced.
  std::unordered_set<std::string> committed;
  for (const DictManifest& dict : dicts) {
    committed.insert(dict.file);
  }
  for (const SegmentManifest& segment : segments_) {
    committed.insert(segment.file);
  }
  SweepUncommitted(options_.dir, committed);

  CatalogSummary summary;
  summary.generation = generation_;
  summary.num_papers = num_papers_;
  summary.num_refs = num_refs_;
  summary.num_segments = static_cast<int64_t>(segments_.size());
  summary.num_authors = static_cast<int64_t>(authors_->size());
  summary.num_venues = static_cast<int64_t>(venues_->size());
  summary.num_titles = static_cast<int64_t>(titles_->size());
  summary.records_skipped = records_skipped;
  summary.bytes_written = bytes_written_;
  return summary;
}

}  // namespace catalog
}  // namespace distinct
