// Sharded, memory-bounded bulk scan with checkpoint/resume.
//
// The one bulk driver: every batch of names, from the CLI's `scan` to
// ResolveAllNamesParallel (a one-shard scan with no budget, checkpoint or
// progress feed), runs here. A scan in one piece materializes every
// group, every profile, and every pair matrix inside one process
// lifetime — one OOM or crash loses the whole run. This layer partitions
// the filtered groups into deterministic, size-balanced shards (balanced
// by estimated pair count, since cost and matrix memory are quadratic in
// group size, not by group count), runs each shard through one private
// group loop (ResolveGroup per name) on one scan-wide propagation state
// (one thread pool, subtree memo and workspace pool) under a memory budget
// (ShardedScanOptions::memory_budget_mb), and persists each finished shard
// as a checkpoint (core/checkpoint.h) so an interrupted run resumes by
// re-running only the unfinished shard. A shard that fails — bad group,
// matrix estimate over budget, checkpoint I/O error — is recorded with its
// status and skipped; the rest of the scan completes.
//
// Determinism: the plan is a pure function of (groups, num_shards); shard
// results merge back into the original group order; and the kernel is
// bit-identical across thread counts, cache sizes, memo history and
// workspace reuse, so the merged output is byte-identical to the one-shard
// scan (and to Distinct::ResolveRefs per name) at every shard count and
// every budget that completes.

#ifndef DISTINCT_CORE_SCAN_SHARD_H_
#define DISTINCT_CORE_SCAN_SHARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/scan.h"
#include "obs/heartbeat.h"

namespace distinct {

/// Pairs a group of n references contributes to its shard's pair matrices
/// (and, squared-ish, to its memory): n·(n-1)/2.
int64_t EstimatedPairs(const NameGroup& group);

/// A deterministic partition of group indices into shards.
struct ShardPlan {
  /// shards[s] = indices into the planned group vector, ascending. Shards
  /// may be empty when there are fewer groups than shards.
  std::vector<std::vector<size_t>> shards;
  /// Estimated pair count per shard (the balancing objective).
  std::vector<int64_t> estimated_pairs;

  int num_shards() const { return static_cast<int>(shards.size()); }
};

/// Size-balances `groups` into `num_shards` shards by estimated pair
/// count: longest-processing-time greedy — groups in input order (the scan
/// order is descending size, so big groups place first), each onto the
/// currently lightest shard, ties to the lowest shard id. Pure function of
/// its inputs; resume depends on replanning producing the identical plan.
ShardPlan PlanShards(const std::vector<NameGroup>& groups, int num_shards);

struct ShardedScanOptions {
  int num_shards = 1;
  /// Workers of the scan's one pool (shards run one after another on it;
  /// within a shard, groups × tiles fan out over it).
  int num_threads = 1;
  /// Memory budget in MiB; 0 = unbounded. Shards run one at a time, so it
  /// bounds each of them. The budget sizes the scan's one SubtreeCache,
  /// bounds concurrent PropagationWorkspaces (capping effective threads),
  /// and fails a shard holding a group whose pair-matrix estimate, on top
  /// of the bytes the MemoryTracker counted when the scan began, would
  /// not fit.
  int64_t memory_budget_mb = 0;
  /// Directory for per-shard checkpoints; empty disables checkpointing
  /// (and resume).
  std::string checkpoint_dir;
  /// Load complete checkpoints instead of re-resolving their shards. A
  /// checkpoint that is present-but-incomplete (killed mid-shard) re-runs;
  /// one that is complete but corrupt or from a different plan fails the
  /// scan with a clean error rather than silently recomputing.
  bool resume = false;
  /// Persist each shard's spans as trace-shard-<id>.json next to its
  /// checkpoint (requires checkpoint_dir and an enabled tracer). The
  /// fragments survive the process, so a resumed scan's merged trace
  /// (obs::CollectShardedTrace) still covers shards the previous run
  /// finished.
  bool write_trace_fragments = false;
  /// When non-null, the scan publishes totals up front and bumps the done
  /// counters as groups resolve — the feed for obs::HeartbeatReporter.
  /// Must outlive the scan. Groups of failed shards stay un-done: the
  /// terminal heartbeat shows exactly what was processed.
  obs::ProgressState* progress = nullptr;
};

enum class ShardState {
  kCompleted,  // resolved in this run
  kResumed,    // loaded from a checkpoint
  kFailed,     // recorded and skipped
};

const char* ShardStateName(ShardState state);

/// What happened to one shard.
struct ShardOutcome {
  int shard_id = 0;
  ShardState state = ShardState::kCompleted;
  int64_t num_groups = 0;
  int64_t num_refs = 0;
  int64_t estimated_pairs = 0;
  /// Worker threads the memory budget afforded the scan.
  int threads_used = 0;
  double seconds = 0.0;
  /// Why the shard failed (kFailed only; OK otherwise).
  Status error;
};

struct ShardedScanResult {
  /// Successful resolutions merged back into the input group order;
  /// groups of failed shards are absent.
  std::vector<BulkResolution> results;
  /// Aggregated over successful shards; seconds covers the whole scan.
  BulkStats stats;
  /// One outcome per planned shard, in shard order.
  std::vector<ShardOutcome> shards;
};

/// Plans, runs (or resumes), checkpoints, and merges a sharded scan.
/// Errors of individual shards degrade gracefully into ShardOutcome
/// records; the returned status is non-OK only for scan-level problems
/// (invalid options, unusable resume state).
StatusOr<ShardedScanResult> RunShardedScan(
    const Distinct& engine, const std::vector<NameGroup>& groups,
    const ShardedScanOptions& options);

}  // namespace distinct

#endif  // DISTINCT_CORE_SCAN_SHARD_H_
