// The dense workspace/memo engine must agree with the depth-first reference
// on every path, tuple, and option combination — and be bit-identical to
// itself across cache capacities, hit/miss patterns, and thread counts.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "../test_util.h"
#include "common/thread_pool.h"
#include "core/distinct.h"
#include "dblp/generator.h"
#include "prop/propagation.h"
#include "prop/workspace.h"
#include "sim/profile_store.h"

namespace distinct {
namespace {

void ExpectProfilesNear(const NeighborProfile& a, const NeighborProfile& b,
                        const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t e = 0; e < a.size(); ++e) {
    EXPECT_EQ(a.entries()[e].tuple, b.entries()[e].tuple) << context;
    EXPECT_NEAR(a.entries()[e].forward, b.entries()[e].forward, 1e-12)
        << context;
    EXPECT_NEAR(a.entries()[e].reverse, b.entries()[e].reverse, 1e-12)
        << context;
  }
}

/// Exact comparison: tuples, bit-for-bit probabilities, truncation flag.
void ExpectProfilesIdentical(const NeighborProfile& a,
                             const NeighborProfile& b,
                             const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  EXPECT_EQ(a.truncated(), b.truncated()) << context;
  for (size_t e = 0; e < a.size(); ++e) {
    EXPECT_EQ(a.entries()[e].tuple, b.entries()[e].tuple) << context;
    EXPECT_EQ(a.entries()[e].forward, b.entries()[e].forward) << context;
    EXPECT_EQ(a.entries()[e].reverse, b.entries()[e].reverse) << context;
  }
}

struct World {
  Database db;
  std::unique_ptr<SchemaGraph> schema;
  std::unique_ptr<LinkGraph> link;
  std::vector<JoinPath> paths;
  std::vector<int32_t> refs;
};

World MakeWorld(Database db, std::vector<int32_t> refs) {
  World world;
  world.db = std::move(db);
  auto schema = SchemaGraph::Build(world.db);
  DISTINCT_CHECK(schema.ok());
  for (const auto& [table, column] : DblpDefaultPromotions()) {
    DISTINCT_CHECK(schema->PromoteAttribute(table, column).ok());
  }
  world.schema = std::make_unique<SchemaGraph>(*std::move(schema));
  auto link = LinkGraph::Build(*world.schema);
  DISTINCT_CHECK(link.ok());
  world.link = std::make_unique<LinkGraph>(*std::move(link));
  PathEnumerationOptions enumeration;
  enumeration.max_length = 4;
  world.paths = EnumerateJoinPaths(
      *world.schema, *world.db.TableId(kPublishTable), enumeration);
  DISTINCT_CHECK(!world.paths.empty());
  world.refs = std::move(refs);
  return world;
}

World MakeMiniWorld() {
  Database db = testing_util::MakeMiniDblp();
  const Table& publish = **db.FindTable(kPublishTable);
  std::vector<int32_t> refs;
  for (int32_t ref = 0; ref < publish.num_rows(); ++ref) {
    refs.push_back(ref);
  }
  return MakeWorld(std::move(db), std::move(refs));
}

World MakeGeneratedWorld() {
  GeneratorConfig config;
  config.seed = 23;
  config.num_communities = 6;
  config.authors_per_community = 10;
  config.papers_per_community_year = 4.0;
  config.ambiguous = {{"Wei Wang", 3, 18}};
  auto dataset = GenerateDblpDataset(config);
  DISTINCT_CHECK(dataset.ok());
  std::vector<int32_t> refs = dataset->cases[0].publish_rows;
  return MakeWorld(std::move(dataset->db), std::move(refs));
}

/// Exclusion on/off × cache capacity {0, small, unbounded}.
class WorkspaceEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<bool, size_t>> {};

TEST_P(WorkspaceEquivalenceTest, AgreesWithBothReferenceEngines) {
  const auto [exclude, cache_bytes] = GetParam();
  for (const World& world : {MakeMiniWorld(), MakeGeneratedWorld()}) {
    PropagationEngine engine(*world.link);

    PropagationOptions dfs;
    dfs.algorithm = PropagationAlgorithm::kDepthFirst;
    dfs.exclude_start_tuple = exclude;
    PropagationOptions dense = dfs;
    dense.algorithm = PropagationAlgorithm::kWorkspace;
    dense.cache_bytes = cache_bytes;

    PropagationWorkspace workspace(*world.link);
    SubtreeCache cache(cache_bytes);
    for (const int32_t ref : world.refs) {
      for (size_t p = 0; p < world.paths.size(); ++p) {
        const JoinPath& path = world.paths[p];
        const std::string context =
            path.Describe(*world.schema) + " ref " + std::to_string(ref);
        ExpectProfilesNear(engine.Compute(path, ref, dfs),
                           engine.Compute(path, ref, dense, workspace, &cache,
                                          static_cast<int>(p)),
                           context);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ExclusionAndCacheSize, WorkspaceEquivalenceTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(size_t{0}, size_t{4096},
                                         size_t{64} << 20)));

TEST(WorkspaceDeterminismTest, BitIdenticalAcrossCacheSizesAndThreads) {
  const World world = MakeGeneratedWorld();
  PropagationEngine engine(*world.link);
  PropagationOptions options;  // default algorithm: kWorkspace

  // Reference run: serial, no memo storage.
  options.cache_bytes = 0;
  const ProfileStore reference =
      ProfileStore::Build(engine, world.paths, options, world.refs);

  for (const size_t cache_bytes :
       {size_t{0}, size_t{4096}, size_t{64} << 20}) {
    for (const int threads : {1, 2, 8}) {
      options.cache_bytes = cache_bytes;
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) {
        pool = std::make_unique<ThreadPool>(threads);
      }
      const ProfileStore store =
          ProfileStore::Build(engine, world.paths, options, world.refs,
                              pool.get(), /*min_parallel_refs=*/1);
      ASSERT_EQ(store.refs(), reference.refs());
      ASSERT_EQ(store.num_paths(), world.paths.size());
      for (size_t i = 0; i < store.num_refs(); ++i) {
        for (size_t p = 0; p < world.paths.size(); ++p) {
          const std::string context =
              "cache=" + std::to_string(cache_bytes) + " threads=" +
              std::to_string(threads) + " ref " + std::to_string(i) +
              " path " + std::to_string(p);
          EXPECT_EQ(store.path(p).is_hub(i), reference.path(p).is_hub(i))
              << context;
          ExpectProfilesIdentical(reference.path(p).Expand(i),
                                  store.path(p).Expand(i), context);
        }
      }
    }
  }
}

TEST(WorkspaceBudgetTest, FallbackMatchesDepthFirstTruncation) {
  const World world = MakeMiniWorld();
  PropagationEngine engine(*world.link);

  PropagationOptions dfs;
  dfs.algorithm = PropagationAlgorithm::kDepthFirst;
  dfs.max_instances = 1;
  PropagationOptions dense = dfs;
  dense.algorithm = PropagationAlgorithm::kWorkspace;

  bool saw_truncation = false;
  for (const int32_t ref : world.refs) {
    for (const JoinPath& path : world.paths) {
      const NeighborProfile expected = engine.Compute(path, ref, dfs);
      saw_truncation = saw_truncation || expected.truncated();
      ExpectProfilesIdentical(
          expected, engine.Compute(path, ref, dense),
          path.Describe(*world.schema) + " ref " + std::to_string(ref));
    }
  }
  EXPECT_TRUE(saw_truncation);  // the budget must actually bite somewhere
}

TEST(SubtreeCacheTest, FindInsertEvictAndStats) {
  SubtreeCache cache(1 << 20);
  EXPECT_EQ(cache.Find(0, 7), nullptr);

  SubtreeDistribution dist;
  dist.Append(3, 0.5, 0.25, 1.0);
  dist.instances = 1.0;
  auto resident = cache.Insert(0, 7, dist);
  ASSERT_NE(resident, nullptr);

  auto hit = cache.Find(0, 7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), resident.get());
  ASSERT_EQ(hit->size(), 1u);
  EXPECT_EQ(hit->tuples[0], 3);
  EXPECT_EQ(cache.Find(1, 7), nullptr);  // other path id: distinct key

  const SubtreeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.bytes, 0);
}

TEST(SubtreeCacheTest, ZeroCapacityNeverStoresButStillReturnsValues) {
  SubtreeCache cache(0);
  SubtreeDistribution dist;
  dist.Append(1, 1.0, 1.0, 1.0);
  auto resident = cache.Insert(0, 1, dist);
  ASSERT_NE(resident, nullptr);  // callers can still merge from the return
  EXPECT_EQ(cache.Find(0, 1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().bytes, 0);
}

TEST(SubtreeCacheTest, TinyCapacityEvictsToFit) {
  // Room for roughly one entry per shard; inserting many keys must evict
  // rather than grow without bound.
  SubtreeDistribution dist;
  for (int32_t t = 0; t < 4; ++t) {
    dist.Append(t, 1.0, 1.0, 1.0);
  }
  dist.ShrinkToFit();
  const size_t capacity = 16 * (dist.ByteSize() + dist.ByteSize() / 2);
  SubtreeCache cache(capacity);
  for (int32_t t = 0; t < 64; ++t) {
    cache.Insert(0, t, dist);
  }
  const SubtreeCacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_GT(stats.entries, 0);  // one fits per shard: evicted, not refused
  EXPECT_LE(static_cast<size_t>(stats.bytes), capacity);
}

TEST(SubtreeCacheTest, SharedCacheHitsAcrossBuilds) {
  const World world = MakeGeneratedWorld();
  PropagationEngine engine(*world.link);
  PropagationOptions options;  // kWorkspace

  SubtreeCache cache(64 << 20);
  (void)ProfileStore::Build(engine, world.paths, options, world.refs,
                            nullptr, ProfileStore::kMinParallelRefs, &cache);
  const int64_t misses_first = cache.stats().misses;
  EXPECT_GT(misses_first, 0);

  // Second build over the same refs: every subtree is already memoized.
  (void)ProfileStore::Build(engine, world.paths, options, world.refs,
                            nullptr, ProfileStore::kMinParallelRefs, &cache);
  const SubtreeCacheStats stats = cache.stats();
  EXPECT_GT(stats.hits, 0);
  EXPECT_EQ(stats.misses, misses_first);
}

/// A path whose steps walk forward (`f`) or reverse (`r`), e.g. "ffrr".
JoinPath PathWithSteps(const std::string& directions) {
  JoinPath path;
  path.start_node = 0;
  for (const char direction : directions) {
    path.steps.push_back(JoinStep{0, direction == 'f'});
  }
  return path;
}

TEST(SubtreeJunctionLevelTest, ReverseStepStopsForwardChainAdvances) {
  // Publish -> Publications -> Proceedings <- Publications -> Conferences:
  // two forward steps reach the hub (level 2), the reverse step stops.
  const std::vector<int> chain = {0, 1, 2, 1, 3};
  EXPECT_EQ(SubtreeJunctionLevel(PathWithSteps("ffrf"), chain, true), 2u);
  // A reverse first step stops at level 0, clamped up to level 1.
  EXPECT_EQ(SubtreeJunctionLevel(PathWithSteps("rfff"), chain, true), 1u);
  // Forward steps only: everything is prefix, nothing is memoized.
  EXPECT_EQ(SubtreeJunctionLevel(PathWithSteps("ffff"), chain, true), 4u);
}

TEST(SubtreeJunctionLevelTest, LastStartNodeLevelIsMemoized) {
  // Publish -> Publications -> Proceedings <- Publications <- Publish: the
  // co-proceedings path ends on the start node yet is keyed by the hub.
  const std::vector<int> node_at = {0, 1, 2, 1, 0};
  EXPECT_EQ(SubtreeJunctionLevel(PathWithSteps("ffrr"), node_at, true), 2u);
  // Publish -> Publications <- Publish: keyed by the paper.
  EXPECT_EQ(SubtreeJunctionLevel(PathWithSteps("fr"), {0, 1, 0}, true), 1u);
}

TEST(SubtreeJunctionLevelTest, InnerStartNodeLevelBoundsTheJunction) {
  // Publish -> Authors <- Publish -> Publications <- Publish: the walk
  // starts at the inner start-node level 2 and advances over its forward
  // step to the paper.
  const std::vector<int> node_at = {0, 1, 0, 2, 0};
  EXPECT_EQ(SubtreeJunctionLevel(PathWithSteps("frfr"), node_at, true), 3u);
  // A reverse step right after the inner level keeps the junction there.
  const std::vector<int> reverse_after = {0, 1, 0, 3, 4};
  EXPECT_EQ(
      SubtreeJunctionLevel(PathWithSteps("frrf"), reverse_after, true), 2u);
  // The deepest inner level wins, even past an earlier forward chain.
  const std::vector<int> two_inner = {0, 1, 0, 1, 0, 2};
  EXPECT_EQ(
      SubtreeJunctionLevel(PathWithSteps("frfrr"), two_inner, true), 4u);
}

TEST(SubtreeJunctionLevelTest, ExclusionOffIgnoresStartNodeLevels) {
  const std::vector<int> node_at = {0, 1, 0, 2, 0};
  EXPECT_EQ(SubtreeJunctionLevel(PathWithSteps("frfr"), node_at, false), 1u);
  EXPECT_EQ(SubtreeJunctionLevel(PathWithSteps("ffrr"), {0, 1, 2, 1, 0},
                                 false),
            2u);
  EXPECT_EQ(SubtreeJunctionLevel(PathWithSteps("rfrf"), node_at, false), 1u);
}

// The per-path constants: level nodes, junction level, and whether every
// step below the junction is a reverse step — false on a suffix that
// steps forward again (e.g. Proceedings <- Publications -> Proceedings),
// whose hubs' suffixes may meet, and when there is no suffix at all.
TEST(ShapePathTest, ReverseSuffixIsReverseStepsBelowTheJunction) {
  const World world = MakeMiniWorld();
  int reverse = 0;
  int mixed = 0;
  for (const JoinPath& path : world.paths) {
    SCOPED_TRACE(path.Describe(*world.schema));
    const PathShape shape = ShapePath(path, *world.schema, true);
    EXPECT_EQ(shape.node_at, path.LevelNodes(*world.schema));
    EXPECT_EQ(shape.junction,
              SubtreeJunctionLevel(path, shape.node_at, true));
    const size_t k = path.steps.size();
    if (shape.junction == k) {
      EXPECT_FALSE(shape.reverse_suffix);
      continue;
    }
    bool all_reverse = true;
    for (size_t i = shape.junction; i < k; ++i) {
      all_reverse = all_reverse && !path.steps[i].forward;
    }
    EXPECT_EQ(shape.reverse_suffix, all_reverse);
    ++(all_reverse ? reverse : mixed);
  }
  EXPECT_GT(reverse, 0);
  EXPECT_GT(mixed, 0);
}

/// Complete walks of `path` from `origin`, pruning walks into the origin
/// at start-node levels (the last level only when `prune_last`).
int64_t CountWalks(const LinkGraph& link, const JoinPath& path,
                   const std::vector<int>& node_at, int32_t origin,
                   bool prune_last, size_t depth = 0, int32_t tuple = -1) {
  const size_t k = path.steps.size();
  if (depth == k) {
    return 1;
  }
  int64_t walks = 0;
  for (const int32_t target :
       link.Neighbors(path.steps[depth], depth == 0 ? origin : tuple)) {
    const bool prune = node_at[depth + 1] == node_at[0] &&
                       (depth + 1 < k || prune_last) && target == origin;
    if (!prune) {
      walks += CountWalks(link, path, node_at, origin, prune_last,
                          depth + 1, target);
    }
  }
  return walks;
}

TEST(WorkspaceBudgetTest, OriginWalksLeaveTheInstanceCount) {
  const World world = MakeMiniWorld();
  PropagationEngine engine(*world.link);
  PropagationOptions unbounded;  // kWorkspace, origin exclusion on
  PropagationOptions dfs = unbounded;
  dfs.algorithm = PropagationAlgorithm::kDepthFirst;

  int checked = 0;
  for (const JoinPath& path : world.paths) {
    const PathShape shape = ShapePath(path, *world.schema, true);
    const std::vector<int>& node_at = shape.node_at;
    const size_t k = path.steps.size();
    if (node_at[k] != node_at[0] || shape.junction == k) {
      continue;  // only memoized paths that end on the start node
    }
    for (const int32_t ref : world.refs) {
      const int64_t walks =
          CountWalks(*world.link, path, node_at, ref, /*prune_last=*/true);
      const int64_t with_origin =
          CountWalks(*world.link, path, node_at, ref, /*prune_last=*/false);
      if (walks == 0 || with_origin == walks) {
        continue;  // the origin's walks must be there to leave the count
      }
      ++checked;
      const std::string context =
          path.Describe(*world.schema) + " ref " + std::to_string(ref);
      PropagationWorkspace workspace(*world.link);
      SubtreeCache cache(64 << 20);
      const std::optional<PathProfile> full = PropagateDense(
          *world.link, path, ref, unbounded, shape, workspace, &cache, 0);
      ASSERT_TRUE(full.has_value()) << context;

      PropagationOptions exact = unbounded;
      exact.max_instances = walks;
      std::optional<PathProfile> at_budget = PropagateDense(
          *world.link, path, ref, exact, shape, workspace, &cache, 0);
      ASSERT_TRUE(at_budget.has_value()) << context;
      const NeighborProfile expanded = ExpandProfile(*std::move(at_budget));
      EXPECT_FALSE(expanded.truncated()) << context;
      ExpectProfilesIdentical(ExpandProfile(*full), expanded, context);

      PropagationOptions short_by_one = exact;
      short_by_one.max_instances = walks - 1;
      EXPECT_FALSE(PropagateDense(*world.link, path, ref, short_by_one,
                                  shape, workspace, &cache, 0)
                       .has_value())
          << context;
      PropagationOptions dfs_short = dfs;
      dfs_short.max_instances = walks - 1;
      const NeighborProfile expected = engine.Compute(path, ref, dfs_short);
      EXPECT_TRUE(expected.truncated()) << context;
      ExpectProfilesIdentical(
          expected, engine.Compute(path, ref, short_by_one, workspace, &cache),
          context);
    }
  }
  EXPECT_GT(checked, 0);  // some memoized path must drop origin walks
}

/// The tentpole's end-to-end guarantee: identical clustering with the memo
/// on vs. off, serial and parallel.
TEST(WorkspaceEndToEndTest, ClusteringIdenticalCacheOnOffAcrossThreads) {
  GeneratorConfig generator;
  generator.seed = 29;
  generator.num_communities = 8;
  generator.authors_per_community = 12;
  generator.ambiguous = {{"Wei Wang", 4, 24}};
  auto dataset = GenerateDblpDataset(generator);
  ASSERT_TRUE(dataset.ok());

  std::vector<int> reference_assignment;
  for (const size_t cache_mb : {0, 64}) {
    for (const int threads : {1, 8}) {
      DistinctConfig config;
      config.supervised = false;
      config.promotions = DblpDefaultPromotions();
      config.propagation.cache_bytes = cache_mb << 20;
      config.num_threads = threads;
      auto engine =
          Distinct::Create(dataset->db, DblpReferenceSpec(), config);
      ASSERT_TRUE(engine.ok());
      auto result = engine->ResolveName("Wei Wang");
      ASSERT_TRUE(result.ok());
      if (reference_assignment.empty()) {
        reference_assignment = result->clustering.assignment;
        ASSERT_FALSE(reference_assignment.empty());
      } else {
        EXPECT_EQ(result->clustering.assignment, reference_assignment)
            << "cache_mb=" << cache_mb << " threads=" << threads;
      }
    }
  }
}

/// The whole pipeline over the default engine clusters exactly as over
/// the depth-first oracle.
TEST(WorkspaceEndToEndTest, ClusteringMatchesDepthFirst) {
  GeneratorConfig generator;
  generator.seed = 29;
  generator.num_communities = 8;
  generator.authors_per_community = 12;
  generator.ambiguous = {{"Wei Wang", 4, 24}};
  auto dataset = GenerateDblpDataset(generator);
  ASSERT_TRUE(dataset.ok());

  DistinctConfig config;
  config.supervised = false;
  config.promotions = DblpDefaultPromotions();
  DistinctConfig dfs_config = config;
  dfs_config.propagation.algorithm = PropagationAlgorithm::kDepthFirst;

  auto engine = Distinct::Create(dataset->db, DblpReferenceSpec(), config);
  auto dfs_engine =
      Distinct::Create(dataset->db, DblpReferenceSpec(), dfs_config);
  ASSERT_TRUE(engine.ok() && dfs_engine.ok());

  auto result = engine->ResolveName("Wei Wang");
  auto dfs_result = dfs_engine->ResolveName("Wei Wang");
  ASSERT_TRUE(result.ok() && dfs_result.ok());
  EXPECT_EQ(result->clustering.assignment, dfs_result->clustering.assignment);
}

}  // namespace
}  // namespace distinct
