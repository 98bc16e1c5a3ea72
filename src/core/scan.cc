#include "core/scan.h"

#include <algorithm>
#include <iterator>

#include "core/scan_shard.h"
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

StatusOr<ClusteringResult> ResolveGroup(const Distinct& engine,
                                        const std::vector<int32_t>& refs,
                                        ThreadPool* pool, SubtreeCache* memo,
                                        WorkspacePool* workspaces,
                                        const CancelToken* cancel) {
  const ProfileStore store = ProfileStore::Build(
      engine.propagation_engine(), engine.paths(),
      engine.config().propagation, refs, pool, ProfileStore::kMinParallelRefs,
      memo, workspaces);
  PairKernelOptions kernel;
  kernel.cancel = cancel;
  const auto matrices =
      ComputePairMatrices(store, engine.model(), pool, kernel);
  if (cancel != nullptr && cancel->aborted()) {
    // The fill stopped at a tile/row boundary; the matrices are partial.
    return DeadlineExceededError("deadline expired in pair kernel");
  }
  return ClusterReferences(matrices.first, matrices.second,
                           engine.cluster_options());
}

StatusOr<BulkStats> ResolveAllNamesParallel(
    const Distinct& engine, const std::vector<NameGroup>& groups,
    int num_threads, std::vector<BulkResolution>* results) {
  ShardedScanOptions options;
  options.num_threads = num_threads;
  auto scan = RunShardedScan(engine, groups, options);
  DISTINCT_RETURN_IF_ERROR(scan.status());
  const ShardOutcome& shard = scan->shards.front();
  if (shard.state == ShardState::kFailed) {
    return shard.error;
  }
  if (results != nullptr) {
    std::move(scan->results.begin(), scan->results.end(),
              std::back_inserter(*results));
  }
  return scan->stats;
}

}  // namespace distinct
