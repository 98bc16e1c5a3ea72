// The dense workspace/memo engine must agree with the depth-first reference
// on every path, tuple, and option combination — and be bit-identical to
// itself across cache capacities, hit/miss patterns, and thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "../test_util.h"
#include "common/thread_pool.h"
#include "core/distinct.h"
#include "dblp/generator.h"
#include "obs/memory.h"
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

using Cell = PropagationWorkspace::Slab::Cell;

void ExpectCell(const Cell& cell, int32_t tuple, double forward,
                double reverse, double count) {
  EXPECT_EQ(cell.tuple, tuple);
  EXPECT_EQ(cell.forward, forward) << "tuple " << tuple;
  EXPECT_EQ(cell.reverse, reverse) << "tuple " << tuple;
  EXPECT_EQ(cell.count, count) << "tuple " << tuple;
}

/// The mini corpus's Publish node: tuples 0..6.
int PublishNode(const World& world) { return world.paths.front().start_node; }

TEST(SlabTest, RepeatedAddsAccumulateInCallOrder) {
  const World world = MakeMiniWorld();
  PropagationWorkspace workspace(*world.link);
  PropagationWorkspace::Slab& slab = workspace.Acquire(PublishNode(world));
  slab.Add(3, 0.1, 0.3, 1.0);
  slab.Add(1, 0.5, 0.5, 2.0);
  slab.Add(3, 0.2, 0.2, 1.0);
  slab.Add(3, 0.3, 0.1, 1.0);
  ASSERT_EQ(slab.cells().size(), 2u);  // first-touch order
  // (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ in the last bit.
  ExpectCell(slab.cells()[0], 3, ((0.0 + 0.1) + 0.2) + 0.3,
             ((0.0 + 0.3) + 0.2) + 0.1, 3.0);
  EXPECT_NE(slab.cells()[0].forward, 0.1 + (0.2 + 0.3));
  ExpectCell(slab.cells()[1], 1, 0.5, 0.5, 2.0);
  workspace.Release(slab);
}

// After Release and Acquire the cells are empty but the slots keep what
// the last use wrote. A slot naming a live cell of another tuple must not
// be taken for the tuple's own.
TEST(SlabTest, StaleSlotOnAnotherTuplesCellGetsAFreshCell) {
  const World world = MakeMiniWorld();
  PropagationWorkspace workspace(*world.link);
  PropagationWorkspace::Slab& slab = workspace.Acquire(PublishNode(world));
  slab.Add(5, 1.0, 1.0, 1.0);  // slot 0
  slab.Add(2, 1.0, 1.0, 1.0);  // slot 1
  workspace.Release(slab);

  PropagationWorkspace::Slab& again = workspace.Acquire(PublishNode(world));
  ASSERT_EQ(&again, &slab);  // recycled, slots as the last use left them
  EXPECT_TRUE(again.cells().empty());
  again.Add(2, 0.25, 0.5, 3.0);    // takes cell 0
  again.Add(5, 0.125, 0.75, 4.0);  // its stale slot 0 now holds tuple 2
  ASSERT_EQ(again.cells().size(), 2u);
  ExpectCell(again.cells()[0], 2, 0.25, 0.5, 3.0);
  ExpectCell(again.cells()[1], 5, 0.125, 0.75, 4.0);
  workspace.Release(again);
}

TEST(SlabTest, StaleSlotAtOrPastTheCellsIsAMiss) {
  const World world = MakeMiniWorld();
  PropagationWorkspace workspace(*world.link);
  PropagationWorkspace::Slab& slab = workspace.Acquire(PublishNode(world));
  slab.Add(0, 1.0, 1.0, 1.0);  // slot 0
  slab.Add(1, 1.0, 1.0, 1.0);  // slot 1
  slab.Add(4, 1.0, 1.0, 1.0);  // slot 2
  slab.Add(6, 1.0, 1.0, 1.0);  // slot 3
  workspace.Release(slab);

  PropagationWorkspace::Slab& again = workspace.Acquire(PublishNode(world));
  again.Add(0, 0.5, 0.5, 1.0);  // slot 0 at cells().size() 0
  again.Add(6, 0.5, 0.5, 1.0);  // slot 3 past cells().size() 1
  again.Add(4, 0.5, 0.5, 1.0);  // slot 2 at cells().size() 2
  ASSERT_EQ(again.cells().size(), 3u);
  ExpectCell(again.cells()[0], 0, 0.5, 0.5, 1.0);
  ExpectCell(again.cells()[1], 6, 0.5, 0.5, 1.0);
  ExpectCell(again.cells()[2], 4, 0.5, 0.5, 1.0);
  workspace.Release(again);
}

TEST(SlabTest, SortOrdersTheCellsByTuple) {
  const World world = MakeMiniWorld();
  PropagationWorkspace workspace(*world.link);
  PropagationWorkspace::Slab& slab = workspace.Acquire(PublishNode(world));
  slab.Add(6, 0.5, 0.25, 1.0);
  slab.Add(0, 0.125, 1.0, 2.0);
  slab.Add(3, 1.0, 0.5, 3.0);
  slab.Add(0, 0.125, 1.0, 2.0);
  slab.Sort();
  ASSERT_EQ(slab.cells().size(), 3u);
  ExpectCell(slab.cells()[0], 0, 0.25, 2.0, 4.0);
  ExpectCell(slab.cells()[1], 3, 1.0, 0.5, 3.0);
  ExpectCell(slab.cells()[2], 6, 0.5, 0.25, 1.0);
  workspace.Release(slab);
}

/// The bits of `x`: EXPECT_EQ on doubles takes -0.0 for +0.0.
uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

void ExpectSameCellBits(const Cell& got, const Cell& want) {
  EXPECT_EQ(got.tuple, want.tuple);
  EXPECT_EQ(Bits(got.forward), Bits(want.forward)) << "tuple " << want.tuple;
  EXPECT_EQ(Bits(got.reverse), Bits(want.reverse)) << "tuple " << want.tuple;
  EXPECT_EQ(Bits(got.count), Bits(want.count)) << "tuple " << want.tuple;
}

// Append stands in for a tuple's first Add: the same 0.0 + x per field, so
// a -0.0 input comes out +0.0 either way.
TEST(SlabTest, AppendHoldsTheBitsOfAFirstAdd) {
  const World world = MakeMiniWorld();
  PropagationWorkspace workspace(*world.link);
  PropagationWorkspace::Slab& added = workspace.Acquire(PublishNode(world));
  PropagationWorkspace::Slab& appended = workspace.Acquire(PublishNode(world));
  ASSERT_NE(&added, &appended);
  const std::vector<Cell> inputs = {
      {4, 0.1, 1.0 / 3.0, 2.0},
      {0, -0.0, -0.0, -0.0},
      {6, 4.9e-324, -1.5, 0.0},
      {2, std::nextafter(1.0, 2.0), 1e300, 7.0},
  };
  for (const Cell& in : inputs) {
    added.Add(in.tuple, in.forward, in.reverse, in.count);
    appended.Append(in.tuple, in.forward, in.reverse, in.count);
  }
  ASSERT_EQ(appended.cells().size(), inputs.size());
  for (size_t c = 0; c < inputs.size(); ++c) {
    ExpectSameCellBits(appended.cells()[c], added.cells()[c]);
  }
  EXPECT_FALSE(std::signbit(appended.cells()[1].forward));
  EXPECT_FALSE(std::signbit(appended.cells()[1].count));
  workspace.Release(appended);
  workspace.Release(added);
}

// The tuples of a slab are distinct, so there is one ascending order: cells
// already in it stay where they are, and any other order is sorted into it.
TEST(SlabTest, SortLeavesAscendingCellsAloneAndOrdersTheRest) {
  const World world = MakeMiniWorld();
  PropagationWorkspace workspace(*world.link);
  const auto cells_after_sort = [&](const std::vector<int32_t>& tuples) {
    PropagationWorkspace::Slab& slab = workspace.Acquire(PublishNode(world));
    for (const int32_t tuple : tuples) {
      slab.Append(tuple, 1.0 / (tuple + 1), tuple + 0.5, tuple);
    }
    slab.Sort();
    std::vector<Cell> cells = slab.cells();
    workspace.Release(slab);
    return cells;
  };
  const std::vector<int32_t> ascending = {0, 2, 3, 5, 6};
  for (const std::vector<int32_t>& order :
       std::vector<std::vector<int32_t>>{
           ascending, {6, 5, 3, 2, 0}, {0, 2, 3, 6, 5}, {2, 0, 3, 5, 6},
           {5, 6, 0, 2, 3}}) {
    const std::vector<Cell> cells = cells_after_sort(order);
    ASSERT_EQ(cells.size(), ascending.size());
    for (size_t c = 0; c < cells.size(); ++c) {
      const int32_t t = ascending[c];
      ExpectCell(cells[c], t, 1.0 / (t + 1), t + 0.5, t);
    }
  }
  EXPECT_TRUE(cells_after_sort({}).empty());
  EXPECT_EQ(cells_after_sort({4}).front().tuple, 4);
}

// The gauge holds a slab's slot index from its allocation and its cell
// capacity from the Release after the cells grew, never a count per Add.
TEST(SlabTest, GaugeCountsSlotIndexAndCellCapacity) {
  const World world = MakeMiniWorld();
  const auto gauge = [] {
    return obs::MemoryTracker::Global().CurrentBytes(
        obs::MemoryTracker::kPropagationWorkspace);
  };
  const int64_t before = gauge();
  {
    PropagationWorkspace workspace(*world.link);
    PropagationWorkspace::Slab& slab = workspace.Acquire(PublishNode(world));
    const auto slots = static_cast<int64_t>(
        world.link->NumTuples(PublishNode(world)) * sizeof(uint32_t));
    EXPECT_EQ(gauge() - before, slots);
    for (int32_t tuple = 0; tuple < 7; ++tuple) {
      slab.Add(tuple, 1.0, 1.0, 1.0);
    }
    EXPECT_EQ(gauge() - before, slots);
    workspace.Release(slab);
    EXPECT_EQ(gauge() - before,
              slots + static_cast<int64_t>(slab.cells().capacity() *
                                           sizeof(Cell)));
  }
  EXPECT_EQ(gauge(), before);
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

// The memory budget's thread cap divides by ApproxWorkspaceBytes, so it
// must price every slab a workspace allocates. Warmed over every path of
// the seed-42 engine with the memo off, every multi-hub reference sweeps
// its suffixes while the merge slab on the last node is held:
// Publish -> Publications <- Publish -> Authors <- Publish needs a second
// Publish slab, which one slab per node leaves out.
TEST(ApproxWorkspaceBytesTest, BoundsAWorkspaceWarmedOverEveryPath) {
  auto dataset = GenerateDblpDataset(GeneratorConfig{});
  ASSERT_TRUE(dataset.ok());
  DistinctConfig config;
  config.supervised = false;
  config.promotions = DblpDefaultPromotions();
  auto engine = Distinct::Create(dataset->db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());
  const LinkGraph& link = engine->propagation_engine().link();
  const PropagationOptions& options = engine->config().propagation;
  auto refs = engine->RefsForName("Wei Wang");
  ASSERT_TRUE(refs.ok());

  const auto gauge = [] {
    return obs::MemoryTracker::Global().CurrentBytes(
        obs::MemoryTracker::kPropagationWorkspace);
  };
  const auto warm = [&](const JoinPath& path,
                        PropagationWorkspace& workspace) {
    const PathShape shape =
        ShapePath(path, link.schema(), options.exclude_start_tuple);
    for (const int32_t ref : *refs) {
      PropagateDense(link, path, ref, options, shape, workspace,
                     /*cache=*/nullptr, /*cache_path_id=*/0);
    }
  };
  // One path at a time, the cells are small next to the slot indexes, so
  // a slab the estimate leaves out shows even on a small node.
  for (const JoinPath& path : engine->paths()) {
    const int64_t before = gauge();
    PropagationWorkspace workspace(link);
    warm(path, workspace);
    EXPECT_LE(static_cast<size_t>(gauge() - before),
              ApproxWorkspaceBytes(link, {path}, options.exclude_start_tuple))
        << path.Describe(link.schema());
  }

  // Every path in one workspace, as a scan's worker warms it.
  const int64_t before = gauge();
  PropagationWorkspace workspace(link);
  for (const JoinPath& path : engine->paths()) {
    warm(path, workspace);
  }
  const auto allocated = static_cast<size_t>(gauge() - before);
  const size_t estimate = ApproxWorkspaceBytes(link, engine->paths(),
                                               options.exclude_start_tuple);
  EXPECT_LE(allocated, estimate);
  // Tight enough not to starve a budgeted scan: pricing every cell at the
  // universe would read 8x the allocation here.
  EXPECT_LE(estimate, 2 * allocated);
}

// A multi-hub merge resolves every hub's suffix before it takes its slab
// on the last node, so each memo miss's sweep down to that node and the
// merge reuse one slab there. Warmed over the co-author path of the
// seed-42 engine with the memo off, a workspace allocates one slot index
// per node the path steps onto: a second Publish index would show as more
// than the cells could account for.
TEST(ApproxWorkspaceBytesTest, MultiHubMergeSharesTheLastNodesSlab) {
  auto dataset = GenerateDblpDataset(GeneratorConfig{});
  ASSERT_TRUE(dataset.ok());
  DistinctConfig config;
  config.supervised = false;
  config.promotions = DblpDefaultPromotions();
  auto engine = Distinct::Create(dataset->db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());
  const LinkGraph& link = engine->propagation_engine().link();
  const SchemaGraph& schema = link.schema();
  const PropagationOptions& options = engine->config().propagation;
  auto refs = engine->RefsForName("Wei Wang");
  ASSERT_TRUE(refs.ok());

  const std::vector<std::string> coauthor_nodes = {
      "Publish", "Publications", "Publish", "Authors", "Publish"};
  const JoinPath* coauthor = nullptr;
  for (const JoinPath& path : engine->paths()) {
    std::vector<std::string> names;
    for (const int node : path.LevelNodes(schema)) {
      names.push_back(schema.node(node).name);
    }
    if (names == coauthor_nodes) coauthor = &path;
  }
  ASSERT_NE(coauthor, nullptr);
  const PathShape shape =
      ShapePath(*coauthor, schema, options.exclude_start_tuple);

  const auto gauge = [] {
    return obs::MemoryTracker::Global().CurrentBytes(
        obs::MemoryTracker::kPropagationWorkspace);
  };
  const int64_t before = gauge();
  PropagationWorkspace workspace(link);
  int multi_hub = 0;
  for (const int32_t ref : *refs) {
    const std::optional<PathProfile> profile =
        PropagateDense(link, *coauthor, ref, options, shape, workspace,
                       /*cache=*/nullptr, /*cache_path_id=*/0);
    ASSERT_TRUE(profile.has_value());
    multi_hub += profile->is_hub() ? 0 : 1;
  }
  EXPECT_GT(multi_hub, 0);  // the merge must run for this to mean anything

  const auto slot_index = [&](size_t level) {
    return static_cast<int64_t>(link.NumTuples(shape.node_at[level]) *
                                sizeof(uint32_t));
  };
  const int64_t slot_indexes = slot_index(1) + slot_index(2) + slot_index(3);
  const int64_t cells = gauge() - before - slot_indexes;
  EXPECT_GE(cells, 0);
  EXPECT_LT(cells, slot_index(4)) << "a second Publish slot index";
}

/// A direction-blind sweep: every step reads LinkGraph::Neighbors and
/// ReverseFanout, accumulates through Slab::Add, and sorts every frontier.
/// The oracle for the bits of PropagateDense's direction-specialized steps.
std::vector<Cell> GenericSweep(const LinkGraph& link, const JoinPath& path,
                               const std::vector<int>& node_at, size_t from,
                               size_t to, int32_t tuple, int32_t excluded,
                               PropagationWorkspace& workspace) {
  std::vector<Cell> frontier = {Cell{tuple, 1.0, 1.0, 1.0}};
  for (size_t i = from; i < to; ++i) {
    const JoinStep& step = path.steps[i];
    const bool exclude = excluded >= 0 && node_at[i + 1] == node_at[0];
    PropagationWorkspace::Slab& next = workspace.Acquire(node_at[i + 1]);
    for (const Cell& cell : frontier) {
      const std::span<const int32_t> targets = link.Neighbors(step, cell.tuple);
      if (targets.empty()) {
        continue;
      }
      const double share = cell.forward / static_cast<double>(targets.size());
      for (const int32_t target : targets) {
        if (exclude && target == excluded) {
          continue;
        }
        const auto back =
            static_cast<double>(link.ReverseFanout(step, target));
        next.Add(target, share, cell.reverse / back, cell.count);
      }
    }
    frontier = next.cells();
    workspace.Release(next);
    std::ranges::sort(frontier, {}, &Cell::tuple);
  }
  return frontier;
}

/// PropagateDense over GenericSweep, with an accumulating merge and no
/// memo: a hub slice (with its own copy of the suffix) or the merged
/// entries, and whether the instance budget was exceeded.
struct GenericProfile {
  bool over_budget = false;
  bool is_hub = false;
  HubSlice hub;
  std::vector<ProfileEntry> entries;
};

GenericProfile GenericPropagate(const LinkGraph& link, const JoinPath& path,
                                int32_t start, const PropagationOptions& options,
                                const PathShape& shape,
                                PropagationWorkspace& workspace) {
  const std::vector<int>& node_at = shape.node_at;
  const size_t k = path.steps.size();
  const size_t junction = shape.junction;
  const std::vector<Cell> prefix =
      GenericSweep(link, path, node_at, 0, junction, start,
                   options.exclude_start_tuple ? start : -1, workspace);
  GenericProfile out;
  double total = 0.0;
  if (junction == k) {
    for (const Cell& cell : prefix) {
      out.entries.push_back(ProfileEntry{cell.tuple, cell.forward,
                                         cell.reverse});
      total += cell.count;
    }
  } else {
    const auto suffix = [&](int32_t hub) {
      SubtreeDistribution dist;
      for (const Cell& cell :
           GenericSweep(link, path, node_at, junction, k, hub, -1, workspace)) {
        dist.Append(cell.tuple, cell.forward, cell.reverse, cell.count);
        dist.instances += cell.count;
      }
      return dist;
    };
    const int32_t origin =
        options.exclude_start_tuple && node_at[k] == node_at[0] ? start : -1;
    const auto skip_of = [origin](const SubtreeDistribution& dist) {
      const auto it = std::ranges::lower_bound(dist.tuples, origin);
      return it != dist.tuples.end() && *it == origin
                 ? static_cast<size_t>(it - dist.tuples.begin())
                 : dist.size();
    };
    const auto dropped = [](const SubtreeDistribution& dist, size_t skip) {
      return skip < dist.size() ? dist.walks[skip] : 0.0;
    };
    if (prefix.size() == 1) {
      const Cell& cell = prefix.front();
      auto dist = std::make_shared<const SubtreeDistribution>(suffix(cell.tuple));
      out.is_hub = true;
      out.hub = HubSlice{dist, cell.tuple,
                         static_cast<uint32_t>(skip_of(*dist)), cell.forward,
                         cell.reverse};
      total = cell.count * (dist->instances - dropped(*dist, out.hub.skip));
    } else {
      std::vector<SubtreeDistribution> dists;
      for (const Cell& cell : prefix) {
        dists.push_back(suffix(cell.tuple));
      }
      PropagationWorkspace::Slab& merged = workspace.Acquire(node_at[k]);
      for (size_t h = 0; h < prefix.size(); ++h) {
        const Cell& cell = prefix[h];
        const SubtreeDistribution& dist = dists[h];
        const size_t skip = skip_of(dist);
        for (size_t e = 0; e < dist.size(); ++e) {
          if (e != skip) {
            merged.Add(dist.tuples[e], cell.forward * dist.forward[e],
                       cell.reverse * dist.reverse[e], 0.0);
          }
        }
        total += cell.count * (dist.instances - dropped(dist, skip));
      }
      std::vector<Cell> cells = merged.cells();
      workspace.Release(merged);
      std::ranges::sort(cells, {}, &Cell::tuple);
      for (const Cell& cell : cells) {
        out.entries.push_back(
            ProfileEntry{cell.tuple, cell.forward, cell.reverse});
      }
    }
  }
  out.over_budget = total > static_cast<double>(options.max_instances);
  return out;
}

void ExpectSameEntryBits(std::span<const ProfileEntry> got,
                         std::span<const ProfileEntry> want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t e = 0; e < want.size(); ++e) {
    ASSERT_EQ(got[e].tuple, want[e].tuple) << "entry " << e;
    EXPECT_EQ(Bits(got[e].forward), Bits(want[e].forward)) << "entry " << e;
    EXPECT_EQ(Bits(got[e].reverse), Bits(want[e].reverse)) << "entry " << e;
  }
}

void ExpectSameSuffixBits(const SubtreeDistribution& got,
                          const SubtreeDistribution& want) {
  ASSERT_EQ(got.tuples, want.tuples);
  for (size_t e = 0; e < want.size(); ++e) {
    EXPECT_EQ(Bits(got.forward[e]), Bits(want.forward[e])) << "entry " << e;
    EXPECT_EQ(Bits(got.reverse[e]), Bits(want.reverse[e])) << "entry " << e;
    EXPECT_EQ(Bits(got.walks[e]), Bits(want.walks[e])) << "entry " << e;
  }
  EXPECT_EQ(Bits(got.instances), Bits(want.instances));
}

/// The path through the schema nodes named `nodes`, each step along the one
/// edge between consecutive nodes, forward or in reverse.
JoinPath PathThrough(const SchemaGraph& schema,
                     const std::vector<std::string>& nodes) {
  const auto node_id = [&](const std::string& name) {
    for (int n = 0; n < schema.num_nodes(); ++n) {
      if (schema.node(n).name == name) return n;
    }
    DISTINCT_CHECK(false);
    return -1;
  };
  JoinPath path;
  path.start_node = node_id(nodes.front());
  for (size_t i = 1; i < nodes.size(); ++i) {
    const int from = node_id(nodes[i - 1]);
    const int to = node_id(nodes[i]);
    for (int e = 0; e < schema.num_edges(); ++e) {
      const SchemaEdge& edge = schema.edge(e);
      if (edge.from_node == from && edge.to_node == to) {
        path.steps.push_back(JoinStep{e, true});
      } else if (edge.from_node == to && edge.to_node == from) {
        path.steps.push_back(JoinStep{e, false});
      }
    }
    DISTINCT_CHECK(path.steps.size() == i);
  }
  return path;
}

/// Which branches of PropagateDense a comparison ran through.
struct BranchCounts {
  int hubs = 0;
  int reverse_merges = 0;  // multi-hub merges on a reverse suffix: Append
  int mixed_merges = 0;    // on a suffix that steps forward again: Add
};

/// PropagateDense against GenericPropagate, bit for bit, for every path
/// and reference, with origin exclusion on and off and the memo off and on
/// (shared across references, so later ones hit).
void ExpectMatchesTheGenericLoop(const LinkGraph& link,
                                 const std::vector<JoinPath>& paths,
                                 const std::vector<int32_t>& refs,
                                 PropagationOptions options,
                                 BranchCounts& counts) {
  for (const bool exclude : {true, false}) {
    options.exclude_start_tuple = exclude;
    for (const bool memo : {false, true}) {
      PropagationWorkspace workspace(link);
      PropagationWorkspace oracle_workspace(link);
      SubtreeCache cache(size_t{64} << 20);
      for (size_t p = 0; p < paths.size(); ++p) {
        const JoinPath& path = paths[p];
        const PathShape shape = ShapePath(path, link.schema(), exclude);
        for (const int32_t ref : refs) {
          SCOPED_TRACE(path.Describe(link.schema()) + " ref " +
                       std::to_string(ref) + " exclude " +
                       std::to_string(exclude) + " memo " +
                       std::to_string(memo));
          const GenericProfile want = GenericPropagate(
              link, path, ref, options, shape, oracle_workspace);
          const std::optional<PathProfile> got =
              PropagateDense(link, path, ref, options, shape, workspace,
                             memo ? &cache : nullptr, static_cast<int>(p));
          ASSERT_EQ(got.has_value(), !want.over_budget);
          if (!got.has_value()) {
            continue;
          }
          ASSERT_EQ(got->is_hub(), want.is_hub);
          if (want.is_hub) {
            ++counts.hubs;
            EXPECT_EQ(got->hub.hub, want.hub.hub);
            EXPECT_EQ(got->hub.skip, want.hub.skip);
            EXPECT_EQ(Bits(got->hub.forward), Bits(want.hub.forward));
            EXPECT_EQ(Bits(got->hub.reverse), Bits(want.hub.reverse));
            ExpectSameSuffixBits(*got->hub.suffix, *want.hub.suffix);
            continue;
          }
          if (shape.junction < path.steps.size()) {
            ++(shape.reverse_suffix ? counts.reverse_merges
                                    : counts.mixed_merges);
          }
          ExpectSameEntryBits(got->entries.entries(), want.entries);
        }
      }
    }
  }
}

// The direction-specialized sweep and the reverse-suffix merge keep every
// bit of the generic loop: over every path of the seed-42 engine for the
// 141 "Wei Wang" references, and over the paths of a small generated world
// plus one longer path. On the DBLP schema only a longer path has a
// multi-hub frontier above a suffix whose hubs reach common tuples, where
// the merge must still accumulate through Add: the years of an author's
// papers, then every conference holding a proceedings in each year.
TEST(WorkspaceOracleTest, SpecializedSweepMatchesTheGenericLoopBitForBit) {
  auto dataset = GenerateDblpDataset(GeneratorConfig{});
  ASSERT_TRUE(dataset.ok());
  DistinctConfig config;
  config.supervised = false;
  config.promotions = DblpDefaultPromotions();
  auto engine = Distinct::Create(dataset->db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());
  auto refs = engine->RefsForName("Wei Wang");
  ASSERT_TRUE(refs.ok());
  ASSERT_EQ(refs->size(), 141u);

  BranchCounts counts;
  ExpectMatchesTheGenericLoop(engine->propagation_engine().link(),
                              engine->paths(), *refs,
                              engine->config().propagation, counts);
  World world = MakeGeneratedWorld();
  world.paths.push_back(PathThrough(
      *world.schema,
      {"Publish", "Authors", "Publish", "Publications", "Proceedings",
       "Proceedings.year", "Proceedings", "Conferences"}));
  ExpectMatchesTheGenericLoop(*world.link, world.paths, world.refs,
                              PropagationOptions{}, counts);
  // Every branch must have run.
  EXPECT_GT(counts.hubs, 0);
  EXPECT_GT(counts.reverse_merges, 0);
  EXPECT_GT(counts.mixed_merges, 0);
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
