#include "core/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/io_util.h"
#include "common/string_util.h"
#include "obs/json_reader.h"
#include "obs/json_writer.h"
#include "obs/memory.h"
#include "obs/metrics.h"

namespace distinct {

namespace {

// ---------------------------------------------------------------------------
// Durable file I/O is the shared common/io_util.h helper set (data fsync'd
// before rename, directory fsync'd after, marker last): every call passes
// "checkpoint" as the context so messages keep naming the subsystem.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// JSON parsing is the shared obs::JsonReader (obs/json_reader.h), which
// keeps the int64-exact / %.17g round-trip guarantees checkpoints rely on.
// ---------------------------------------------------------------------------

using obs::JsonReader;
using obs::JsonValue;

constexpr char kJsonContext[] = "checkpoint JSON";

StatusOr<int64_t> RequireInt(const JsonValue& object, const char* key) {
  return obs::RequireInt(object, key, kJsonContext);
}

// ---------------------------------------------------------------------------
// Checkpoint (de)serialization.
// ---------------------------------------------------------------------------

constexpr char kVersionKey[] = "distinct_shard_checkpoint";

std::string CheckpointToJson(const ShardCheckpoint& checkpoint) {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key(kVersionKey).Value(ShardCheckpoint::kFormatVersion);
  json.Key("shard_id").Value(checkpoint.shard_id);
  json.Key("num_shards").Value(checkpoint.num_shards);
  json.Key("catalog_version").Value(checkpoint.catalog_version);
  json.Key("tuple_watermark").Value(checkpoint.tuple_watermark);
  json.Key("groups").BeginArray();
  for (size_t g = 0; g < checkpoint.results.size(); ++g) {
    const BulkResolution& resolution = checkpoint.results[g];
    json.BeginObject();
    json.Key("index").Value(
        static_cast<int64_t>(checkpoint.group_indices[g]));
    json.Key("name").Value(resolution.name);
    json.Key("num_refs").Value(static_cast<int64_t>(resolution.num_refs));
    json.Key("num_clusters").Value(resolution.clustering.num_clusters);
    json.Key("assignment").BeginArray();
    for (const int cluster : resolution.clustering.assignment) {
      json.Value(cluster);
    }
    json.EndArray();
    // Merges as [into, from, similarity] triples; %.17g round-trips the
    // similarity bit-exactly, which is what makes resume byte-identical.
    json.Key("merges").BeginArray();
    for (const MergeStep& merge : resolution.clustering.merges) {
      json.BeginArray();
      json.Value(merge.into);
      json.Value(merge.from);
      json.Value(merge.similarity);
      json.EndArray();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

StatusOr<ShardCheckpoint> CheckpointFromJson(const std::string& text,
                                             int expected_shard_id) {
  auto root = JsonReader(text, kJsonContext).Parse();
  DISTINCT_RETURN_IF_ERROR(root.status());
  if (root->kind != JsonValue::Kind::kObject) {
    return DataLossError("checkpoint JSON: top level is not an object");
  }

  auto version = RequireInt(*root, kVersionKey);
  DISTINCT_RETURN_IF_ERROR(version.status());
  if (*version != ShardCheckpoint::kFormatVersion) {
    return FailedPreconditionError(StrFormat(
        "checkpoint format version %lld, this build reads version %d",
        static_cast<long long>(*version), ShardCheckpoint::kFormatVersion));
  }

  ShardCheckpoint checkpoint;
  auto shard_id = RequireInt(*root, "shard_id");
  DISTINCT_RETURN_IF_ERROR(shard_id.status());
  auto num_shards = RequireInt(*root, "num_shards");
  DISTINCT_RETURN_IF_ERROR(num_shards.status());
  checkpoint.shard_id = static_cast<int>(*shard_id);
  checkpoint.num_shards = static_cast<int>(*num_shards);
  auto catalog_version = RequireInt(*root, "catalog_version");
  DISTINCT_RETURN_IF_ERROR(catalog_version.status());
  auto tuple_watermark = RequireInt(*root, "tuple_watermark");
  DISTINCT_RETURN_IF_ERROR(tuple_watermark.status());
  checkpoint.catalog_version = *catalog_version;
  checkpoint.tuple_watermark = *tuple_watermark;
  if (checkpoint.shard_id != expected_shard_id) {
    return DataLossError(StrFormat(
        "checkpoint names shard %d, expected shard %d", checkpoint.shard_id,
        expected_shard_id));
  }

  const JsonValue* groups = root->Find("groups");
  if (groups == nullptr || groups->kind != JsonValue::Kind::kArray) {
    return DataLossError("checkpoint JSON: missing 'groups' array");
  }
  for (const JsonValue& group : groups->items) {
    if (group.kind != JsonValue::Kind::kObject) {
      return DataLossError("checkpoint JSON: group is not an object");
    }
    auto index = RequireInt(group, "index");
    DISTINCT_RETURN_IF_ERROR(index.status());
    auto num_refs = RequireInt(group, "num_refs");
    DISTINCT_RETURN_IF_ERROR(num_refs.status());
    auto num_clusters = RequireInt(group, "num_clusters");
    DISTINCT_RETURN_IF_ERROR(num_clusters.status());
    const JsonValue* name = group.Find("name");
    if (name == nullptr || name->kind != JsonValue::Kind::kString) {
      return DataLossError("checkpoint JSON: group without a name");
    }
    const JsonValue* assignment = group.Find("assignment");
    const JsonValue* merges = group.Find("merges");
    if (assignment == nullptr ||
        assignment->kind != JsonValue::Kind::kArray || merges == nullptr ||
        merges->kind != JsonValue::Kind::kArray) {
      return DataLossError(
          "checkpoint JSON: group without assignment/merges arrays");
    }

    BulkResolution resolution;
    resolution.name = name->string_value;
    resolution.num_refs = static_cast<size_t>(*num_refs);
    resolution.clustering.num_clusters = static_cast<int>(*num_clusters);
    resolution.clustering.assignment.reserve(assignment->items.size());
    for (const JsonValue& cluster : assignment->items) {
      if (cluster.kind != JsonValue::Kind::kInt) {
        return DataLossError("checkpoint JSON: non-integer assignment");
      }
      resolution.clustering.assignment.push_back(
          static_cast<int>(cluster.int_value));
    }
    if (resolution.clustering.assignment.size() != resolution.num_refs) {
      return DataLossError(StrFormat(
          "checkpoint JSON: group '%s' has %zu assignments for %zu refs",
          resolution.name.c_str(), resolution.clustering.assignment.size(),
          resolution.num_refs));
    }
    resolution.clustering.merges.reserve(merges->items.size());
    for (const JsonValue& triple : merges->items) {
      if (triple.kind != JsonValue::Kind::kArray ||
          triple.items.size() != 3 ||
          triple.items[0].kind != JsonValue::Kind::kInt ||
          triple.items[1].kind != JsonValue::Kind::kInt) {
        return DataLossError("checkpoint JSON: malformed merge triple");
      }
      MergeStep merge;
      merge.into = static_cast<int>(triple.items[0].int_value);
      merge.from = static_cast<int>(triple.items[1].int_value);
      merge.similarity = triple.items[2].AsDouble();
      resolution.clustering.merges.push_back(merge);
    }
    resolution.clustering.num_merges =
        static_cast<int>(resolution.clustering.merges.size());

    checkpoint.group_indices.push_back(static_cast<size_t>(*index));
    checkpoint.results.push_back(std::move(resolution));
  }
  return checkpoint;
}

}  // namespace

std::string ShardCheckpointPath(const std::string& dir, int shard_id) {
  return dir + "/shard-" + std::to_string(shard_id) + ".json";
}

std::string ShardMarkerPath(const std::string& dir, int shard_id) {
  return dir + "/shard-" + std::to_string(shard_id) + ".done";
}

Status WriteShardCheckpoint(const std::string& dir,
                            const ShardCheckpoint& checkpoint) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return InternalError("checkpoint: cannot create directory '" + dir +
                         "': " + ec.message());
  }

  const std::string json = CheckpointToJson(checkpoint);
  // The serialized buffer lives until this function returns; hold it
  // against the kCheckpoint gauge so its peak shows up in the report.
  obs::TrackedBytes buffer_bytes(obs::MemoryTracker::kCheckpoint);
  buffer_bytes.Set(static_cast<int64_t>(json.capacity()));
  // A failed write or rename removes the tmp file: the retry path
  // recreates it from scratch, and CleanupCheckpointTmpFiles() only covers
  // crashes, not surviving processes that keep checkpointing.
  DISTINCT_RETURN_IF_ERROR(ReplaceFileDurable(
      ShardCheckpointPath(dir, checkpoint.shard_id), json, "checkpoint"));
  // The marker is written only after the data file is durably in place, so
  // its presence certifies a complete, readable checkpoint.
  DISTINCT_RETURN_IF_ERROR(WriteFileDurable(
      ShardMarkerPath(dir, checkpoint.shard_id), "done\n", "checkpoint"));
  DISTINCT_RETURN_IF_ERROR(FsyncDir(dir, "checkpoint"));
  DISTINCT_COUNTER_ADD("scan.checkpoints_written", 1);
  DISTINCT_COUNTER_ADD("scan.checkpoint_bytes_written",
                       static_cast<int64_t>(json.size()));
  return Status::Ok();
}

bool ShardCheckpointComplete(const std::string& dir, int shard_id) {
  std::error_code ec;
  return std::filesystem::exists(ShardMarkerPath(dir, shard_id), ec);
}

StatusOr<ShardCheckpoint> ReadShardCheckpoint(const std::string& dir,
                                              int shard_id) {
  if (!ShardCheckpointComplete(dir, shard_id)) {
    return NotFoundError(StrFormat(
        "checkpoint for shard %d has no completion marker", shard_id));
  }
  auto text = ReadFileToString(ShardCheckpointPath(dir, shard_id), "checkpoint");
  DISTINCT_RETURN_IF_ERROR(text.status());
  obs::TrackedBytes buffer_bytes(obs::MemoryTracker::kCheckpoint);
  buffer_bytes.Set(static_cast<int64_t>(text->capacity()));
  auto checkpoint = CheckpointFromJson(*text, shard_id);
  if (checkpoint.ok()) {
    DISTINCT_COUNTER_ADD("scan.checkpoints_read", 1);
  }
  return checkpoint;
}

int64_t CleanupCheckpointTmpFiles(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return 0;  // missing or unreadable directory: nothing to clean
  }
  int64_t removed = 0;
  for (const std::filesystem::directory_entry& entry : it) {
    const std::string name = entry.path().filename().string();
    constexpr std::string_view kPrefix = "shard-";
    constexpr std::string_view kSuffix = ".json.tmp";
    if (name.size() <= kPrefix.size() + kSuffix.size() ||
        name.compare(0, kPrefix.size(), kPrefix) != 0 ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) != 0) {
      continue;
    }
    std::error_code remove_ec;
    if (std::filesystem::remove(entry.path(), remove_ec) && !remove_ec) {
      ++removed;
    }
  }
  return removed;
}

}  // namespace distinct
