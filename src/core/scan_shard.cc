#include "core/scan_shard.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace distinct {

namespace {

/// The propagation state of one scan, built once and handed to every
/// shard's group loop: one thread pool, one subtree memo and one workspace
/// free-list. The memo is reference-independent, so a hub suffix computed
/// for one name is a hit for every later name of the scan, whichever shard
/// it sits in; at most one workspace per concurrent worker is ever
/// allocated.
///
/// The standing bytes that admission adds to a group's matrix estimate
/// are measured here, before the memo and the scan's own workspaces exist,
/// so every group of the scan is admitted against the same number wherever
/// it runs. Counting the memo that earlier groups filled would make later
/// shards stricter.
struct ScanState {
  ScanState(const Distinct& engine, int threads, size_t cache_bytes,
            int64_t budget)
      : budget_bytes(budget),
        // Admission is measured, not just estimated: bytes the tracked
        // subsystems already hold (engine-level memo entries, the profile
        // stores of prior work) count against the budget alongside a
        // group's matrix estimate.
        standing_bytes(obs::MemoryTracker::Global().TrackedTotalBytes()),
        pool(threads) {
    if (engine.config().propagation.algorithm ==
        PropagationAlgorithm::kWorkspace) {
      memo = std::make_unique<SubtreeCache>(cache_bytes);
      workspaces =
          std::make_unique<WorkspacePool>(engine.propagation_engine().link());
    }
  }

  const int64_t budget_bytes;    // 0 = unbounded
  const int64_t standing_bytes;  // MemoryTracker total at construction
  ThreadPool pool;
  /// Null under PropagationAlgorithm::kDepthFirst, which has no memo and
  /// no scratch slabs.
  std::unique_ptr<SubtreeCache> memo;
  std::unique_ptr<WorkspacePool> workspaces;
};

/// Builds the scan's state from what its memory budget affords.
ScanState MakeScanState(const Distinct& engine,
                        const ShardedScanOptions& options) {
  const DistinctConfig& config = engine.config();
  const bool dense =
      config.propagation.algorithm == PropagationAlgorithm::kWorkspace;
  int threads = std::max(1, options.num_threads);
  size_t cache_bytes = dense ? config.propagation.cache_bytes : 0;
  const int64_t budget_bytes = std::max<int64_t>(options.memory_budget_mb, 0)
                               << 20;
  if (dense && budget_bytes > 0) {
    // A quarter of the budget for the subtree memo (never more than the
    // configured cache), the rest for scratch slabs: one workspace per
    // concurrent worker, so the workspace allowance caps the thread count.
    cache_bytes =
        std::min(cache_bytes, static_cast<size_t>(budget_bytes / 4));
    const size_t workspace_bytes =
        ApproxWorkspaceBytes(engine.propagation_engine().link(), engine.paths(),
                             config.propagation.exclude_start_tuple);
    const int64_t affordable = static_cast<int64_t>(
        (static_cast<size_t>(budget_bytes) - cache_bytes) / workspace_bytes);
    threads = static_cast<int>(
        std::clamp<int64_t>(affordable, 1, static_cast<int64_t>(threads)));
  }
  return ScanState(engine, threads, cache_bytes, budget_bytes);
}

/// The group loop every shard runs: resolves groups[indices[i]] into
/// (*out)[i] with ResolveGroup on the scan's state. Groups are one pool
/// task each; a mega-group's profile propagations and pair-matrix tiles
/// additionally fan out to the same pool from inside its task
/// (ParallelForShared is re-entrant). Hit/miss and reuse patterns cannot
/// change values, only speed, so the memo size and how many groups and
/// shards share it never change a result.
///
/// Every group is checked before any is resolved: a reference outside the
/// reference table is InvalidArgument; a group whose matrix estimate plus
/// `state.standing_bytes` exceeds `state.budget_bytes` (when set) is
/// OutOfRange. `progress` (optional) counts resolved groups and refs.
/// Opens no span, so the caller owns the span tree.
Status ResolveGroups(const Distinct& engine,
                     const std::vector<NameGroup>& groups,
                     const std::vector<size_t>& indices, ScanState& state,
                     obs::ProgressState* progress,
                     std::vector<BulkResolution>* out) {
  // Up-front validation so a bad group fails cleanly instead of crashing
  // a worker mid-kernel.
  const std::vector<JoinPath>& paths = engine.paths();
  const int64_t num_start_tuples =
      paths.empty() ? 0
                    : engine.propagation_engine().link().NumTuples(
                          paths.front().start_node);
  for (const size_t g : indices) {
    const NameGroup& group = groups[g];
    for (const int32_t ref : group.refs) {
      if (!paths.empty() && (ref < 0 || ref >= num_start_tuples)) {
        return InvalidArgumentError(StrFormat(
            "group '%s' has out-of-range reference %d (universe %lld)",
            group.name.c_str(), ref,
            static_cast<long long>(num_start_tuples)));
      }
    }
    if (state.budget_bytes > 0) {
      const int64_t matrix_bytes =
          EstimatedGroupMatrixBytes(static_cast<int64_t>(group.refs.size()));
      if (state.standing_bytes + matrix_bytes > state.budget_bytes) {
        return OutOfRangeError(StrFormat(
            "group '%s' (%zu refs) needs ~%lld bytes of pair matrices on "
            "top of %lld measured resident bytes, over the %lld-byte scan "
            "budget",
            group.name.c_str(), group.refs.size(),
            static_cast<long long>(matrix_bytes),
            static_cast<long long>(state.standing_bytes),
            static_cast<long long>(state.budget_bytes)));
      }
    }
  }

  out->assign(indices.size(), BulkResolution{});
  ThreadPool& pool = state.pool;
  ParallelFor(pool, static_cast<int64_t>(indices.size()), [&](int64_t i) {
    const NameGroup& group = groups[indices[static_cast<size_t>(i)]];
    // Without a token the resolver cannot fail.
    auto clustering =
        ResolveGroup(engine, group.refs, &pool, state.memo.get(),
                     state.workspaces.get(), /*cancel=*/nullptr);
    BulkResolution& resolution = (*out)[static_cast<size_t>(i)];
    resolution.name = group.name;
    resolution.num_refs = group.refs.size();
    resolution.clustering = *std::move(clustering);
    if (progress != nullptr) {
      progress->groups_done.fetch_add(1, std::memory_order_relaxed);
      progress->refs_done.fetch_add(static_cast<int64_t>(group.refs.size()),
                                    std::memory_order_relaxed);
    }
  });
  return Status::Ok();
}

/// Checks a loaded checkpoint against the current plan; resuming against a
/// different dataset or shard layout must fail loudly, not recompute.
Status ValidateCheckpointAgainstPlan(const Distinct& engine,
                                     const ShardCheckpoint& checkpoint,
                                     const std::vector<NameGroup>& groups,
                                     const ShardPlan& plan, int shard_id) {
  if (checkpoint.catalog_version != engine.catalog_version() ||
      checkpoint.tuple_watermark != engine.tuple_watermark()) {
    return FailedPreconditionError(StrFormat(
        "checkpoint for shard %d is stale: it was written at catalog "
        "version %lld / %lld tuples, the engine is at version %lld / %lld "
        "tuples — rows were appended (ApplyDelta) since the checkpoint; "
        "re-run the scan without --resume",
        shard_id, static_cast<long long>(checkpoint.catalog_version),
        static_cast<long long>(checkpoint.tuple_watermark),
        static_cast<long long>(engine.catalog_version()),
        static_cast<long long>(engine.tuple_watermark())));
  }
  if (checkpoint.num_shards != plan.num_shards() ||
      checkpoint.group_indices != plan.shards[static_cast<size_t>(shard_id)]) {
    return FailedPreconditionError(StrFormat(
        "checkpoint for shard %d was written for a different shard plan "
        "(checkpoint: %d shards, %zu groups; current: %d shards, %zu "
        "groups)",
        shard_id, checkpoint.num_shards, checkpoint.group_indices.size(),
        plan.num_shards(),
        plan.shards[static_cast<size_t>(shard_id)].size()));
  }
  for (size_t g = 0; g < checkpoint.group_indices.size(); ++g) {
    const NameGroup& group = groups[checkpoint.group_indices[g]];
    const BulkResolution& resolution = checkpoint.results[g];
    if (resolution.name != group.name ||
        resolution.num_refs != group.refs.size()) {
      return FailedPreconditionError(StrFormat(
          "checkpoint for shard %d resolves '%s' (%zu refs) where the "
          "current scan has '%s' (%zu refs) — wrong dataset?",
          shard_id, resolution.name.c_str(), resolution.num_refs,
          group.name.c_str(), group.refs.size()));
    }
  }
  return Status::Ok();
}

}  // namespace

int64_t EstimatedPairs(const NameGroup& group) {
  const int64_t n = static_cast<int64_t>(group.refs.size());
  return n * (n - 1) / 2;
}

ShardPlan PlanShards(const std::vector<NameGroup>& groups, int num_shards) {
  ShardPlan plan;
  const size_t shards = static_cast<size_t>(std::max(1, num_shards));
  plan.shards.resize(shards);
  plan.estimated_pairs.assign(shards, 0);
  // Longest-processing-time greedy. Scan groups arrive sorted by
  // descending size, so the heaviest groups are placed first and the
  // lighter tail evens the loads out. Each group goes to the currently
  // lightest shard (ties to the lowest id) — deterministic, so resume can
  // re-derive the identical plan from the same groups.
  for (size_t g = 0; g < groups.size(); ++g) {
    size_t lightest = 0;
    for (size_t s = 1; s < shards; ++s) {
      if (plan.estimated_pairs[s] < plan.estimated_pairs[lightest]) {
        lightest = s;
      }
    }
    plan.shards[lightest].push_back(g);
    // Even a 1-ref group (0 pairs) costs a profile build; weigh it at
    // least 1 so pairless groups still spread across shards.
    plan.estimated_pairs[lightest] +=
        std::max<int64_t>(EstimatedPairs(groups[g]), 1);
  }
  return plan;
}

const char* ShardStateName(ShardState state) {
  switch (state) {
    case ShardState::kCompleted:
      return "completed";
    case ShardState::kResumed:
      return "resumed";
    case ShardState::kFailed:
      return "failed";
  }
  return "unknown";
}

StatusOr<ShardedScanResult> RunShardedScan(
    const Distinct& engine, const std::vector<NameGroup>& groups,
    const ShardedScanOptions& options) {
  if (options.num_shards < 1) {
    return InvalidArgumentError(
        StrFormat("num_shards must be >= 1, got %d", options.num_shards));
  }
  if (options.resume && options.checkpoint_dir.empty()) {
    return InvalidArgumentError("resume requires a checkpoint directory");
  }

  Stopwatch watch;
  DISTINCT_TRACE_SPAN("sharded_scan");
  if (!options.checkpoint_dir.empty()) {
    // Drop tmp files a killed writer left behind before any reads/writes.
    const int64_t removed =
        CleanupCheckpointTmpFiles(options.checkpoint_dir);
    if (removed > 0) {
      DISTINCT_LOG(INFO) << "scan: removed " << removed
                         << " orphaned checkpoint tmp file(s) from "
                         << options.checkpoint_dir;
    }
  }
  const ShardPlan plan = PlanShards(groups, options.num_shards);
  // One pool, memo and workspace free-list for every shard: a hub suffix
  // one shard computed is a hit for the next.
  ScanState state = MakeScanState(engine, options);
  const int threads = state.pool.num_threads();
  DISTINCT_COUNTER_ADD("scan.shards_planned", plan.num_shards());
  DISTINCT_LOG(INFO) << "scan: " << groups.size() << " groups over "
                     << plan.num_shards() << " shards, " << threads
                     << " threads"
                     << (state.budget_bytes > 0
                             ? StrFormat(", %lld MiB budget",
                                         static_cast<long long>(
                                             state.budget_bytes >> 20))
                             : std::string());

  if (options.progress != nullptr) {
    int64_t total_refs = 0;
    for (const NameGroup& group : groups) {
      total_refs += static_cast<int64_t>(group.refs.size());
    }
    options.progress->shards_total.store(plan.num_shards(),
                                         std::memory_order_relaxed);
    options.progress->groups_total.store(
        static_cast<int64_t>(groups.size()), std::memory_order_relaxed);
    options.progress->refs_total.store(total_refs,
                                       std::memory_order_relaxed);
  }
  const bool write_fragments = options.write_trace_fragments &&
                               !options.checkpoint_dir.empty() &&
                               obs::Enabled();

  ShardedScanResult result;
  result.shards.reserve(static_cast<size_t>(plan.num_shards()));
  // Resolutions keyed by planned group index; merged in order at the end.
  std::vector<std::optional<BulkResolution>> by_group(groups.size());

  for (int s = 0; s < plan.num_shards(); ++s) {
    const std::vector<size_t>& indices =
        plan.shards[static_cast<size_t>(s)];
    ShardOutcome outcome;
    outcome.shard_id = s;
    outcome.num_groups = static_cast<int64_t>(indices.size());
    outcome.estimated_pairs =
        plan.estimated_pairs[static_cast<size_t>(s)];
    outcome.threads_used = threads;
    for (const size_t g : indices) {
      outcome.num_refs += static_cast<int64_t>(groups[g].refs.size());
    }
    Stopwatch shard_watch;

    if (options.resume &&
        ShardCheckpointComplete(options.checkpoint_dir, s)) {
      auto checkpoint = ReadShardCheckpoint(options.checkpoint_dir, s);
      DISTINCT_RETURN_IF_ERROR(checkpoint.status());
      DISTINCT_RETURN_IF_ERROR(
          ValidateCheckpointAgainstPlan(engine, *checkpoint, groups, plan, s));
      for (size_t g = 0; g < checkpoint->group_indices.size(); ++g) {
        by_group[checkpoint->group_indices[g]] =
            std::move(checkpoint->results[g]);
      }
      outcome.state = ShardState::kResumed;
      outcome.seconds = shard_watch.Seconds();
      DISTINCT_COUNTER_ADD("scan.shards_resumed", 1);
      DISTINCT_LOG(INFO) << "scan: shard " << s << " resumed from "
                         << ShardCheckpointPath(options.checkpoint_dir, s);
      if (options.progress != nullptr) {
        // A resumed shard's groups were produced by the previous process;
        // count them done wholesale (its fragment, if any, is kept as-is).
        options.progress->shards_done.fetch_add(1,
                                                std::memory_order_relaxed);
        options.progress->groups_done.fetch_add(outcome.num_groups,
                                                std::memory_order_relaxed);
        options.progress->refs_done.fetch_add(outcome.num_refs,
                                              std::memory_order_relaxed);
      }
      result.shards.push_back(std::move(outcome));
      continue;
    }

    // Spans recorded from here on belong to this shard's trace fragment.
    const size_t span_base =
        write_fragments ? obs::Tracer::Global().Snapshot().size() : 0;
    std::vector<BulkResolution> shard_results;
    Status shard_status = [&] {
      DISTINCT_TRACE_SPAN("scan_shard");
      return ResolveGroups(engine, groups, indices, state, options.progress,
                           &shard_results);
    }();
    if (shard_status.ok() && !options.checkpoint_dir.empty()) {
      ShardCheckpoint checkpoint;
      checkpoint.shard_id = s;
      checkpoint.num_shards = plan.num_shards();
      checkpoint.catalog_version = engine.catalog_version();
      checkpoint.tuple_watermark = engine.tuple_watermark();
      checkpoint.group_indices = indices;
      checkpoint.results = shard_results;
      shard_status =
          WriteShardCheckpoint(options.checkpoint_dir, checkpoint);
    }

    outcome.seconds = shard_watch.Seconds();
    if (!shard_status.ok()) {
      // Graceful degradation: record the error, skip the shard's groups,
      // keep scanning. The shard table and scan.shards_failed make the
      // gap visible instead of the whole run aborting.
      outcome.state = ShardState::kFailed;
      outcome.error = shard_status;
      DISTINCT_COUNTER_ADD("scan.shards_failed", 1);
      DISTINCT_LOG(WARN) << "scan: shard " << s << " failed and was skipped: "
                         << shard_status.ToString();
    } else {
      for (size_t g = 0; g < indices.size(); ++g) {
        by_group[indices[g]] = std::move(shard_results[g]);
      }
      outcome.state = ShardState::kCompleted;
      DISTINCT_COUNTER_ADD("scan.shards_completed", 1);
      DISTINCT_HISTOGRAM_RECORD(
          "scan.shard_nanos",
          static_cast<int64_t>(outcome.seconds * 1e9));
    }
    if (write_fragments) {
      // Re-root this shard's spans so the fragment stands alone: parents
      // outside the shard's slice (the open sharded_scan span) become
      // roots. Fragments are advisory — a write failure is logged, never
      // fails the shard.
      std::vector<obs::SpanRecord> spans = obs::Tracer::Global().Snapshot();
      std::vector<obs::SpanRecord> shard_spans(
          spans.begin() + static_cast<ptrdiff_t>(
                              std::min(span_base, spans.size())),
          spans.end());
      for (obs::SpanRecord& span : shard_spans) {
        span.parent = span.parent >= static_cast<int>(span_base)
                          ? span.parent - static_cast<int>(span_base)
                          : -1;
      }
      const Status written = obs::WriteTraceFragment(
          obs::TraceFragmentPath(options.checkpoint_dir, s), shard_spans);
      if (!written.ok()) {
        DISTINCT_LOG(WARN) << "scan: shard " << s
                           << " trace fragment not written: "
                           << written.ToString();
      }
    }
    if (options.progress != nullptr) {
      // Failed shards count as done shards (they will not run again) but
      // their groups stay pending-forever — the gap is the signal.
      options.progress->shards_done.fetch_add(1, std::memory_order_relaxed);
    }
    result.shards.push_back(std::move(outcome));
  }

  for (std::optional<BulkResolution>& resolution : by_group) {
    if (!resolution.has_value()) {
      continue;
    }
    result.stats.Add(*resolution);
    result.results.push_back(*std::move(resolution));
  }
  result.stats.seconds = watch.Seconds();
  DISTINCT_COUNTER_ADD("scan.names_resolved", result.stats.names_resolved);
  DISTINCT_COUNTER_ADD("scan.names_split", result.stats.names_split);
  DISTINCT_COUNTER_ADD("scan.refs_resolved", result.stats.total_refs);
  DISTINCT_LOG(INFO) << "scan: resolved " << result.stats.names_resolved
                     << " names (" << result.stats.names_split
                     << " split) across " << plan.num_shards()
                     << " shards in " << result.stats.seconds << "s";
  return result;
}

}  // namespace distinct
