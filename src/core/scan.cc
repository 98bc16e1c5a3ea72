#include "core/scan.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/heartbeat.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/parallel_kernel.h"
#include "sim/profile_store.h"

namespace distinct {

StatusOr<std::vector<NameGroup>> ScanNameGroups(const Distinct& engine,
                                                const ScanOptions& options) {
  std::vector<NameGroup> groups;
  for (const auto& [name, refs] : engine.name_groups()) {
    const auto size = static_cast<int64_t>(refs.size());
    if (size < options.min_refs ||
        (options.max_refs > 0 && size > options.max_refs)) {
      continue;
    }
    groups.push_back(NameGroup{name, refs});
  }
  std::stable_sort(groups.begin(), groups.end(),
                   [](const NameGroup& a, const NameGroup& b) {
                     return a.refs.size() > b.refs.size();
                   });
  return groups;
}

void BulkStats::Add(const BulkResolution& resolution) {
  ++names_resolved;
  total_refs += static_cast<int64_t>(resolution.num_refs);
  total_clusters += resolution.clustering.num_clusters;
  if (resolution.clustering.num_clusters > 1) {
    ++names_split;
  }
}

int64_t EstimatedGroupMatrixBytes(int64_t n) {
  return n * (n - 1) * static_cast<int64_t>(sizeof(double)) +
         2 * n * static_cast<int64_t>(sizeof(int));
}

ScanState::ScanState(const Distinct& engine, const GroupLoopBudget& budget)
    : budget_bytes_(budget.budget_bytes),
      // Admission is measured, not just estimated: bytes the tracked
      // subsystems already hold (engine-level memo entries, the profile
      // stores of prior work) count against the budget alongside a group's
      // matrix estimate. Measured before this state's memo exists.
      standing_bytes_(obs::MemoryTracker::Global().TrackedTotalBytes()),
      pool_(budget.threads) {
  if (engine.config().propagation.algorithm ==
      PropagationAlgorithm::kWorkspace) {
    memo_ = std::make_unique<SubtreeCache>(budget.cache_bytes);
    workspaces_ =
        std::make_unique<WorkspacePool>(engine.propagation_engine().link());
  }
}

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
  const int64_t budget_bytes = state.budget_bytes();
  const int64_t standing_bytes = state.standing_bytes();
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
    if (budget_bytes > 0) {
      const int64_t matrix_bytes =
          EstimatedGroupMatrixBytes(static_cast<int64_t>(group.refs.size()));
      if (standing_bytes + matrix_bytes > budget_bytes) {
        return OutOfRangeError(StrFormat(
            "group '%s' (%zu refs) needs ~%lld bytes of pair matrices on "
            "top of %lld measured resident bytes, over the %lld-byte scan "
            "budget",
            group.name.c_str(), group.refs.size(),
            static_cast<long long>(matrix_bytes),
            static_cast<long long>(standing_bytes),
            static_cast<long long>(budget_bytes)));
      }
    }
  }

  // Hit/miss and reuse patterns cannot change values, only speed, so the
  // memo size and how many groups and loops share it never change a
  // result.
  out->assign(indices.size(), BulkResolution{});
  ThreadPool& pool = state.pool();
  const SimilarityModel& model = engine.model();
  const AgglomerativeOptions cluster_options = engine.cluster_options();
  ParallelFor(pool, static_cast<int64_t>(indices.size()), [&](int64_t i) {
    const NameGroup& group = groups[indices[static_cast<size_t>(i)]];
    const ProfileStore store = ProfileStore::Build(
        engine.propagation_engine(), paths, engine.config().propagation,
        group.refs, &pool, ProfileStore::kMinParallelRefs, state.memo(),
        state.workspaces());
    auto matrices = ComputePairMatrices(store, model, &pool);
    BulkResolution& resolution = (*out)[static_cast<size_t>(i)];
    resolution.name = group.name;
    resolution.num_refs = group.refs.size();
    resolution.clustering = ClusterReferences(
        matrices.first, matrices.second, cluster_options);
    if (progress != nullptr) {
      progress->groups_done.fetch_add(1, std::memory_order_relaxed);
      progress->refs_done.fetch_add(static_cast<int64_t>(group.refs.size()),
                                    std::memory_order_relaxed);
    }
  });
  return Status::Ok();
}

StatusOr<BulkStats> ResolveAllNamesParallel(
    const Distinct& engine, const std::vector<NameGroup>& groups,
    int num_threads, std::vector<BulkResolution>* results) {
  Stopwatch watch;
  // One span for the whole fan-out, opened on the calling thread. Worker
  // lambdas record only commutative counters/histograms (inside the kernels
  // they call), so the span tree is identical at any thread count.
  DISTINCT_TRACE_SPAN("bulk_resolve_parallel");
  DISTINCT_LOG(INFO) << "scan: resolving " << groups.size()
                     << " name groups on " << num_threads << " threads";
  std::vector<size_t> indices(groups.size());
  std::iota(indices.begin(), indices.end(), size_t{0});
  GroupLoopBudget budget;
  budget.threads = num_threads;
  budget.cache_bytes = engine.config().propagation.cache_bytes;
  ScanState state(engine, budget);
  std::vector<BulkResolution> local;
  DISTINCT_RETURN_IF_ERROR(ResolveGroups(engine, groups, indices, state,
                                         /*progress=*/nullptr, &local));

  BulkStats stats;
  for (BulkResolution& resolution : local) {
    stats.Add(resolution);
    if (results != nullptr) {
      results->push_back(std::move(resolution));
    }
  }
  stats.seconds = watch.Seconds();
  DISTINCT_COUNTER_ADD("scan.names_resolved", stats.names_resolved);
  DISTINCT_COUNTER_ADD("scan.names_split", stats.names_split);
  DISTINCT_COUNTER_ADD("scan.refs_resolved", stats.total_refs);
  DISTINCT_LOG(INFO) << "scan: resolved " << stats.names_resolved
                     << " names (" << stats.names_split << " split) in "
                     << stats.seconds << "s";
  return stats;
}

}  // namespace distinct
