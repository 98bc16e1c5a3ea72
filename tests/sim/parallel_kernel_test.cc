#include "sim/parallel_kernel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>

#include "../test_util.h"
#include "core/distinct.h"
#include "dblp/generator.h"
#include "dblp/schema.h"
#include "sim/profile_arena.h"
#include "sim/profile_store.h"

namespace distinct {
namespace {

/// Oracle profiles: one PropagationEngine::Compute per (reference, path),
/// with no store, memo or pool.
std::vector<std::vector<NeighborProfile>> OracleProfiles(
    const Distinct& engine, const std::vector<int32_t>& refs) {
  std::vector<std::vector<NeighborProfile>> profiles(refs.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    for (const JoinPath& path : engine.paths()) {
      profiles[i].push_back(engine.propagation_engine().Compute(
          path, refs[i], engine.config().propagation));
    }
  }
  return profiles;
}

/// Serial reference implementation: the pre-kernel per-cell loop over
/// oracle profiles and ComputePairFeatures. The kernel must reproduce it
/// bit-for-bit.
std::pair<PairMatrix, PairMatrix> SerialMatrices(
    const Distinct& engine, const std::vector<int32_t>& refs) {
  const std::vector<std::vector<NeighborProfile>> profiles =
      OracleProfiles(engine, refs);
  const SimilarityModel& model = engine.model();
  const size_t n = refs.size();
  PairMatrix resem(n);
  PairMatrix walk(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) {
      const PairFeatures features =
          ComputePairFeatures(profiles[i], profiles[j]);
      resem.set(i, j, model.Resemblance(features));
      walk.set(i, j, model.Walk(features));
    }
  }
  return std::make_pair(std::move(resem), std::move(walk));
}

void ExpectBitIdentical(const PairMatrix& a, const PairMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the guarantee is bit-for-bit.
      EXPECT_EQ(a.at(i, j), b.at(i, j)) << "cell (" << i << ", " << j << ")";
    }
  }
}

/// A generated database with one planted mega-name, plus an engine and
/// everything the kernel consumes.
class ParallelKernelTest : public ::testing::Test {
 protected:
  ParallelKernelTest() {
    GeneratorConfig generator;
    generator.seed = 7;
    generator.num_communities = 12;
    generator.authors_per_community = 15;
    generator.ambiguous = {{"Wei Wang", 4, 60}};
    auto dataset = GenerateDblpDataset(generator);
    DISTINCT_CHECK(dataset.ok());
    dataset_ = std::make_unique<DblpDataset>(*std::move(dataset));

    DistinctConfig config;
    config.supervised = false;
    config.promotions = DblpDefaultPromotions();
    auto engine =
        Distinct::Create(dataset_->db, DblpReferenceSpec(), config);
    DISTINCT_CHECK(engine.ok());
    engine_ = std::make_unique<Distinct>(*std::move(engine));

    auto refs = engine_->RefsForName("Wei Wang");
    DISTINCT_CHECK(refs.ok());
    refs_ = *std::move(refs);
    DISTINCT_CHECK(refs_.size() >= 50);
  }

  std::unique_ptr<DblpDataset> dataset_;
  std::unique_ptr<Distinct> engine_;
  std::vector<int32_t> refs_;
};

TEST_F(ParallelKernelTest, ProfileStoreMatchesExtractor) {
  const std::vector<std::vector<NeighborProfile>> oracle =
      OracleProfiles(*engine_, refs_);
  const ProfileStore store = ProfileStore::Build(
      engine_->propagation_engine(), engine_->paths(),
      engine_->config().propagation, refs_, /*pool=*/nullptr);
  ASSERT_EQ(store.num_refs(), refs_.size());
  ASSERT_EQ(store.num_paths(), engine_->paths().size());
  for (size_t i = 0; i < refs_.size(); ++i) {
    EXPECT_EQ(store.IndexOf(refs_[i]), static_cast<int64_t>(i));
    const std::vector<NeighborProfile>& expected = oracle[i];
    const std::vector<NeighborProfile>& actual = store.profiles(i);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t p = 0; p < expected.size(); ++p) {
      ASSERT_EQ(actual[p].size(), expected[p].size());
      for (size_t e = 0; e < expected[p].entries().size(); ++e) {
        EXPECT_EQ(actual[p].entries()[e].tuple,
                  expected[p].entries()[e].tuple);
        EXPECT_EQ(actual[p].entries()[e].forward,
                  expected[p].entries()[e].forward);
        EXPECT_EQ(actual[p].entries()[e].reverse,
                  expected[p].entries()[e].reverse);
      }
    }
  }
  EXPECT_EQ(store.IndexOf(-123), -1);
}

TEST_F(ParallelKernelTest, KernelIsBitIdenticalAcrossThreadCounts) {
  const auto serial = SerialMatrices(*engine_, refs_);

  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    // Tiny tile size so even ~60 refs produce many tiles.
    PairKernelOptions options;
    options.tile_size = 8;
    options.min_parallel_refs = 2;
    const ProfileStore store = ProfileStore::Build(
        engine_->propagation_engine(), engine_->paths(),
        engine_->config().propagation, refs_, &pool,
        /*min_parallel_refs=*/2);
    const auto parallel =
        ComputePairMatrices(store, engine_->model(), &pool, options);
    ExpectBitIdentical(parallel.first, serial.first);
    ExpectBitIdentical(parallel.second, serial.second);
  }
}

TEST_F(ParallelKernelTest, TileSizeDoesNotChangeResults) {
  ThreadPool pool(4);
  const ProfileStore store = ProfileStore::Build(
      engine_->propagation_engine(), engine_->paths(),
      engine_->config().propagation, refs_, &pool, /*min_parallel_refs=*/2);
  const auto baseline = ComputePairMatrices(store, engine_->model());
  for (const int tile : {1, 3, 16, 1024}) {
    PairKernelOptions options;
    options.tile_size = tile;
    options.min_parallel_refs = 2;
    const auto tiled =
        ComputePairMatrices(store, engine_->model(), &pool, options);
    ExpectBitIdentical(tiled.first, baseline.first);
    ExpectBitIdentical(tiled.second, baseline.second);
  }
}

TEST_F(ParallelKernelTest, EngineComputeMatricesMatchesAcrossThreadCounts) {
  DistinctConfig config = engine_->config();
  auto serial = engine_->ComputeMatrices(refs_);
  ASSERT_TRUE(serial.ok());
  for (const int threads : {2, 8}) {
    config.num_threads = threads;
    auto parallel_engine =
        Distinct::Create(dataset_->db, DblpReferenceSpec(), config);
    ASSERT_TRUE(parallel_engine.ok());
    auto parallel = parallel_engine->ComputeMatrices(refs_);
    ASSERT_TRUE(parallel.ok());
    ExpectBitIdentical(parallel->first, serial->first);
    ExpectBitIdentical(parallel->second, serial->second);
  }
}

// The incremental-catalog seam: matrices patched with UpdatePairMatrices
// after a store splice must be bit-identical to a full fill over the
// updated store — with conservative extra dirty marks.
TEST_F(ParallelKernelTest, UpdatePairMatricesMatchesFullFill) {
  ASSERT_GE(refs_.size(), 20u);
  const size_t old_n = refs_.size() - 8;  // last 8 refs play the append
  const std::vector<int32_t> old_refs(refs_.begin(),
                                      refs_.begin() + old_n);
  const std::vector<int32_t> new_refs(refs_.begin() + old_n, refs_.end());

  ProfileStore store = ProfileStore::Build(
      engine_->propagation_engine(), engine_->paths(),
      engine_->config().propagation, old_refs, /*pool=*/nullptr);
  ProfileArena arena = ProfileArena::FromStore(store);
  const auto old_matrices = ComputePairMatrices(store, arena, engine_->model());

  // Splice in the "appended" refs; additionally mark every 5th existing
  // position dirty — their profiles are unchanged, and the conservative
  // re-mark must not change a single bit.
  std::vector<size_t> positions;
  std::vector<char> dirty(refs_.size(), 0);
  for (size_t i = 0; i < old_n; i += 5) {
    positions.push_back(i);
    dirty[i] = 1;
  }
  for (size_t i = old_n; i < refs_.size(); ++i) {
    dirty[i] = 1;
  }
  store.Update(engine_->propagation_engine(), engine_->paths(),
               engine_->config().propagation, positions, new_refs);
  arena.PatchFromStore(store, positions);

  const auto patched =
      UpdatePairMatrices(store, arena, engine_->model(), dirty,
                         old_matrices.first, old_matrices.second);
  const auto full = ComputePairMatrices(store, engine_->model());
  ExpectBitIdentical(patched.first, full.first);
  ExpectBitIdentical(patched.second, full.second);
}

// All-dirty degenerates to a full fill; the partial candidate build must
// cover exactly the same pairs.
TEST_F(ParallelKernelTest, UpdatePairMatricesAllDirtyMatchesFullFill) {
  const ProfileStore store = ProfileStore::Build(
      engine_->propagation_engine(), engine_->paths(),
      engine_->config().propagation, refs_, /*pool=*/nullptr);
  const ProfileArena arena = ProfileArena::FromStore(store);
  const auto full = ComputePairMatrices(store, engine_->model());
  const std::vector<char> dirty(refs_.size(), 1);
  // Stale "old" matrices of the right size; every cell is dirty, so none
  // of these values may survive.
  PairMatrix stale_resem(refs_.size());
  PairMatrix stale_walk(refs_.size());
  for (size_t i = 0; i < refs_.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      stale_resem.set(i, j, 123.0);
      stale_walk.set(i, j, 456.0);
    }
  }
  const auto patched =
      UpdatePairMatrices(store, arena, engine_->model(), dirty, stale_resem,
                         stale_walk);
  ExpectBitIdentical(patched.first, full.first);
  ExpectBitIdentical(patched.second, full.second);
}

// The serving deadline seam: an unfired token must be invisible (results
// stay bit-identical to no token at all), a pre-fired one must abandon the
// fill and mark the token aborted on both the serial and parallel paths.
TEST_F(ParallelKernelTest, UnfiredCancelTokenIsBitInvisible) {
  const ProfileStore store = ProfileStore::Build(
      engine_->propagation_engine(), engine_->paths(),
      engine_->config().propagation, refs_, /*pool=*/nullptr);
  const auto baseline = ComputePairMatrices(store, engine_->model());

  const CancelToken unfired(std::chrono::steady_clock::time_point::max());
  for (const int threads : {0, 4}) {
    SCOPED_TRACE(threads);
    PairKernelOptions options;
    options.tile_size = 8;
    options.min_parallel_refs = 2;
    options.cancel = &unfired;
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) {
      pool = std::make_unique<ThreadPool>(threads);
    }
    const auto result =
        ComputePairMatrices(store, engine_->model(), pool.get(), options);
    EXPECT_FALSE(unfired.aborted());
    ExpectBitIdentical(result.first, baseline.first);
    ExpectBitIdentical(result.second, baseline.second);
  }
}

TEST_F(ParallelKernelTest, FiredCancelTokenAbandonsTheFill) {
  const ProfileStore store = ProfileStore::Build(
      engine_->propagation_engine(), engine_->paths(),
      engine_->config().propagation, refs_, /*pool=*/nullptr);
  for (const int threads : {0, 4}) {
    SCOPED_TRACE(threads);
    CancelToken fired;
    fired.Cancel();
    PairKernelOptions options;
    options.tile_size = 8;
    options.min_parallel_refs = 2;
    options.cancel = &fired;
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) {
      pool = std::make_unique<ThreadPool>(threads);
    }
    const auto result =
        ComputePairMatrices(store, engine_->model(), pool.get(), options);
    // The fill was abandoned: the token records it, and the (partial)
    // matrices must be treated as garbage by the caller.
    EXPECT_TRUE(fired.aborted());
    EXPECT_EQ(result.first.size(), refs_.size());
  }
}

TEST(ParallelKernelEdgeTest, EmptyAndSingletonStores) {
  Database db = testing_util::MakeMiniDblp();
  DistinctConfig config;
  config.supervised = false;
  auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());
  ThreadPool pool(2);
  for (const std::vector<int32_t>& refs :
       {std::vector<int32_t>{}, std::vector<int32_t>{0}}) {
    const ProfileStore store = ProfileStore::Build(
        engine->propagation_engine(), engine->paths(),
        engine->config().propagation, refs, &pool, /*min_parallel_refs=*/0);
    const auto matrices = ComputePairMatrices(store, engine->model(), &pool);
    EXPECT_EQ(matrices.first.size(), refs.size());
    EXPECT_EQ(matrices.second.size(), refs.size());
  }
}

TEST(ParallelForSharedTest, CoversAllIndicesOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelForShared(pool, 1000,
                    [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForSharedTest, NestedInsideParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int64_t> total{0};
  // Outer: per-group tasks occupy every worker; inner: each group fans its
  // items out to the same (fully busy) pool — the caller must make
  // progress alone.
  ParallelFor(pool, 8, [&](int64_t) {
    ParallelForShared(pool, 100, [&](int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 800);
}

TEST(ParallelForSharedTest, WorksWithZeroAndOneItems) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  ParallelForShared(pool, 0, [&](int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  ParallelForShared(pool, 1, [&](int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);
}

}  // namespace
}  // namespace distinct
