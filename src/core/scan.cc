#include "core/scan.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <unordered_map>

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

namespace {

/// Applies the min/max-refs filters and the descending-size order shared by
/// both ScanNameGroups overloads.
std::vector<NameGroup> FilterAndSortGroups(std::vector<NameGroup> groups,
                                           const ScanOptions& options) {
  std::vector<NameGroup> filtered;
  for (NameGroup& group : groups) {
    const int64_t refs = static_cast<int64_t>(group.refs.size());
    if (refs < options.min_refs) {
      continue;
    }
    if (options.max_refs > 0 && refs > options.max_refs) {
      continue;
    }
    filtered.push_back(std::move(group));
  }
  std::stable_sort(filtered.begin(), filtered.end(),
                   [](const NameGroup& a, const NameGroup& b) {
                     return a.refs.size() > b.refs.size();
                   });
  return filtered;
}

}  // namespace

StatusOr<std::vector<NameGroup>> ScanNameGroups(const Database& db,
                                                const ReferenceSpec& spec,
                                                const ScanOptions& options) {
  auto resolved = ResolveReferenceSpec(db, spec);
  DISTINCT_RETURN_IF_ERROR(resolved.status());
  const Table& name_table = db.table(resolved->name_table_id);
  const Table& ref_table = db.table(resolved->reference_table_id);

  // Primary key -> name-group index (groups keyed by name string so that
  // several same-named rows collapse into one group).
  std::unordered_map<std::string, size_t> group_of_name;
  std::unordered_map<int64_t, size_t> group_of_pk;
  std::vector<NameGroup> groups;
  const int pk_col = name_table.primary_key_column();
  for (int64_t row = 0; row < name_table.num_rows(); ++row) {
    const std::string& name =
        name_table.GetString(row, resolved->name_column);
    auto [it, inserted] = group_of_name.emplace(name, groups.size());
    if (inserted) {
      NameGroup group;
      group.name = name;
      groups.push_back(std::move(group));
    }
    group_of_pk[name_table.GetInt(row, pk_col)] = it->second;
  }

  for (int64_t row = 0; row < ref_table.num_rows(); ++row) {
    if (ref_table.IsNull(row, resolved->identity_column)) {
      continue;
    }
    auto it =
        group_of_pk.find(ref_table.GetInt(row, resolved->identity_column));
    if (it != group_of_pk.end()) {
      groups[it->second].refs.push_back(static_cast<int32_t>(row));
    }
  }

  return FilterAndSortGroups(std::move(groups), options);
}

StatusOr<std::vector<NameGroup>> ScanNameGroups(const Distinct& engine,
                                                const ScanOptions& options) {
  std::vector<NameGroup> groups;
  groups.reserve(engine.name_groups().size());
  for (const auto& [name, refs] : engine.name_groups()) {
    NameGroup group;
    group.name = name;
    group.refs = refs;
    groups.push_back(std::move(group));
  }
  return FilterAndSortGroups(std::move(groups), options);
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

Status ResolveGroups(const Distinct& engine,
                     const std::vector<NameGroup>& groups,
                     const std::vector<size_t>& indices,
                     const GroupLoopBudget& budget,
                     obs::ProgressState* progress,
                     std::vector<BulkResolution>* out) {
  // Up-front validation so a bad group fails cleanly instead of crashing
  // a worker mid-kernel.
  const std::vector<JoinPath>& paths = engine.paths();
  const int64_t num_start_tuples =
      paths.empty() ? 0
                    : engine.propagation_engine().link().NumTuples(
                          paths.front().start_node);
  // Admission is measured, not just estimated: bytes the tracked
  // subsystems already hold (engine-level memo entries, arenas from prior
  // work) count against the budget alongside the group's matrix estimate.
  const int64_t standing_bytes =
      obs::MemoryTracker::Global().TrackedTotalBytes();
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
    if (budget.budget_bytes > 0) {
      const int64_t matrix_bytes =
          EstimatedGroupMatrixBytes(static_cast<int64_t>(group.refs.size()));
      if (standing_bytes + matrix_bytes > budget.budget_bytes) {
        return OutOfRangeError(StrFormat(
            "group '%s' (%zu refs) needs ~%lld bytes of pair matrices on "
            "top of %lld measured resident bytes, over the %lld-byte shard "
            "budget",
            group.name.c_str(), group.refs.size(),
            static_cast<long long>(matrix_bytes),
            static_cast<long long>(standing_bytes),
            static_cast<long long>(budget.budget_bytes)));
      }
    }
  }

  // Hit/miss and reuse patterns cannot change values, only speed, so the
  // memo size and how many groups share it never change a result.
  std::unique_ptr<SubtreeCache> memo;
  std::unique_ptr<WorkspacePool> workspaces;
  if (engine.config().propagation.algorithm ==
      PropagationAlgorithm::kWorkspace) {
    memo = std::make_unique<SubtreeCache>(budget.cache_bytes);
    workspaces =
        std::make_unique<WorkspacePool>(engine.propagation_engine().link());
  }

  out->assign(indices.size(), BulkResolution{});
  ThreadPool pool(budget.threads);
  const SimilarityModel& model = engine.model();
  const AgglomerativeOptions cluster_options = engine.cluster_options();
  ParallelFor(pool, static_cast<int64_t>(indices.size()), [&](int64_t i) {
    const NameGroup& group = groups[indices[static_cast<size_t>(i)]];
    const ProfileStore store = ProfileStore::Build(
        engine.propagation_engine(), paths, engine.config().propagation,
        group.refs, &pool, ProfileStore::kMinParallelRefs, memo.get(),
        workspaces.get());
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
  std::vector<BulkResolution> local;
  DISTINCT_RETURN_IF_ERROR(ResolveGroups(engine, groups, indices, budget,
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
