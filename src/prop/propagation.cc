#include "prop/propagation.h"

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "prop/workspace.h"

namespace distinct {
namespace {

/// Recursive DFS state shared across the traversal.
struct DfsContext {
  const LinkGraph* link = nullptr;
  const JoinPath* path = nullptr;
  int64_t remaining_instances = 0;
  bool truncated = false;
  /// Node id at each depth (node_at[0] == path->start_node).
  std::vector<int> node_at;
  int32_t start_tuple = -1;
  bool exclude_start_tuple = false;
  std::unordered_map<int32_t, std::pair<double, double>> accumulator;
};

void Dfs(DfsContext& ctx, size_t depth, int32_t tuple, double forward,
         double reverse) {
  if (depth == ctx.path->steps.size()) {
    if (ctx.remaining_instances <= 0) {
      ctx.truncated = true;
      return;
    }
    --ctx.remaining_instances;
    auto& slot = ctx.accumulator[tuple];
    slot.first += forward;
    slot.second += reverse;
    return;
  }
  if (ctx.truncated && ctx.remaining_instances <= 0) {
    return;
  }
  const JoinStep& step = ctx.path->steps[depth];
  const std::span<const int32_t> targets = ctx.link->Neighbors(step, tuple);
  if (targets.empty()) {
    return;  // NULL FK or no referencing rows: this mass is lost.
  }
  const double share = forward / static_cast<double>(targets.size());
  const bool check_origin =
      ctx.exclude_start_tuple &&
      ctx.node_at[depth + 1] == ctx.node_at[0];
  for (const int32_t target : targets) {
    if (check_origin && target == ctx.start_tuple) {
      continue;  // walks through the origin carry no identity signal
    }
    const int64_t back = ctx.link->ReverseFanout(step, target);
    // `tuple` itself is reachable from `target` against the step, so the
    // reverse fanout is at least 1.
    Dfs(ctx, depth + 1, target, share,
        reverse / static_cast<double>(back));
  }
}

/// Depth-first computation with the instance budget (the only engine with
/// mid-traversal truncation; the workspace sweep falls back to it when its
/// exact instance count exceeds the budget).
NeighborProfile ComputeDepthFirst(const LinkGraph& link, const JoinPath& path,
                                  int32_t start_tuple,
                                  const PropagationOptions& options,
                                  std::vector<int> node_at) {
  DfsContext ctx;
  ctx.link = &link;
  ctx.path = &path;
  ctx.remaining_instances = options.max_instances;
  ctx.start_tuple = start_tuple;
  ctx.exclude_start_tuple = options.exclude_start_tuple;
  ctx.node_at = std::move(node_at);

  Dfs(ctx, 0, start_tuple, 1.0, 1.0);

  std::vector<ProfileEntry> entries;
  entries.reserve(ctx.accumulator.size());
  for (const auto& [tuple, probs] : ctx.accumulator) {
    entries.push_back(ProfileEntry{tuple, probs.first, probs.second});
  }
  NeighborProfile profile(std::move(entries));
  profile.set_truncated(ctx.truncated);
  return profile;
}

}  // namespace

NeighborProfile PropagationEngine::Compute(
    const JoinPath& path, int32_t start_tuple,
    const PropagationOptions& options) const {
  if (options.algorithm == PropagationAlgorithm::kWorkspace) {
    PropagationWorkspace workspace(*link_);
    return Compute(path, start_tuple, options, workspace);
  }
  DISTINCT_CHECK(path.start_node >= 0);
  DISTINCT_CHECK(!path.steps.empty());
  DISTINCT_DCHECK(start_tuple >= 0 &&
                  start_tuple < link_->NumTuples(path.start_node));

  return ComputeDepthFirst(*link_, path, start_tuple, options,
                           path.LevelNodes(link_->schema()));
}

NeighborProfile PropagationEngine::Compute(const JoinPath& path,
                                           int32_t start_tuple,
                                           const PropagationOptions& options,
                                           PropagationWorkspace& workspace,
                                           SubtreeCache* cache,
                                           int cache_path_id) const {
  return ExpandProfile(ComputeSlice(
      path, ShapePath(path, link_->schema(), options.exclude_start_tuple),
      start_tuple, options, &workspace, cache, cache_path_id));
}

PathProfile PropagationEngine::ComputeSlice(
    const JoinPath& path, const PathShape& shape, int32_t start_tuple,
    const PropagationOptions& options, PropagationWorkspace* workspace,
    SubtreeCache* cache, int cache_path_id) const {
  DISTINCT_CHECK(path.start_node >= 0);
  DISTINCT_CHECK(!path.steps.empty());
  DISTINCT_DCHECK(start_tuple >= 0 &&
                  start_tuple < link_->NumTuples(path.start_node));
  if (options.algorithm == PropagationAlgorithm::kWorkspace) {
    DISTINCT_CHECK(workspace != nullptr);
    std::optional<PathProfile> profile =
        PropagateDense(*link_, path, start_tuple, options, shape, *workspace,
                       cache, cache_path_id);
    if (profile.has_value()) {
      return *std::move(profile);
    }
  }
  PathProfile profile;
  profile.entries = ComputeDepthFirst(*link_, path, start_tuple, options,
                                      shape.node_at);
  return profile;
}

}  // namespace distinct
