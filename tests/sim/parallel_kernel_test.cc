#include "sim/parallel_kernel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>

#include "../test_util.h"
#include "core/distinct.h"
#include "dblp/generator.h"
#include "dblp/schema.h"
#include "sim/profile_store.h"

namespace distinct {
namespace {

using testing_util::OracleProfiles;

void ExpectBitIdentical(const PairMatrix& a, const PairMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the guarantee is bit-for-bit.
      EXPECT_EQ(a.at(i, j), b.at(i, j)) << "cell (" << i << ", " << j << ")";
    }
  }
}

/// Slice `r` of path `p`, expanded, holds exactly `expected`'s entries.
void ExpectSliceIs(const ProfileStore& store, size_t p, size_t r,
                   const NeighborProfile& expected) {
  SCOPED_TRACE(::testing::Message() << "path " << p << " slice " << r);
  const NeighborProfile slice = store.path(p).Expand(r);
  ASSERT_EQ(slice.size(), expected.size());
  for (size_t e = 0; e < expected.size(); ++e) {
    EXPECT_EQ(slice.entries()[e].tuple, expected.entries()[e].tuple);
    EXPECT_EQ(slice.entries()[e].forward, expected.entries()[e].forward);
    EXPECT_EQ(slice.entries()[e].reverse, expected.entries()[e].reverse);
  }
}

/// Same references, the same kind of slice everywhere, and every slice
/// expanding to the same entries bit for bit.
void ExpectSameSlices(const ProfileStore& got, const ProfileStore& want) {
  ASSERT_EQ(got.refs(), want.refs());
  ASSERT_EQ(got.num_paths(), want.num_paths());
  for (size_t p = 0; p < want.num_paths(); ++p) {
    for (size_t r = 0; r < want.num_refs(); ++r) {
      EXPECT_EQ(got.path(p).is_hub(r), want.path(p).is_hub(r));
      ExpectSliceIs(got, p, r, want.path(p).Expand(r));
    }
  }
}

/// A generated database with one planted mega-name of 150 references —
/// three tile rows of the fill — plus an engine and everything the kernel
/// consumes.
class ParallelKernelTest : public ::testing::Test {
 protected:
  ParallelKernelTest() {
    GeneratorConfig generator;
    generator.seed = 7;
    generator.num_communities = 12;
    generator.authors_per_community = 15;
    generator.ambiguous = {{"Wei Wang", 4, 150}};
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
    DISTINCT_CHECK(refs_.size() >= 150);
  }

  std::unique_ptr<DblpDataset> dataset_;
  std::unique_ptr<Distinct> engine_;
  std::vector<int32_t> refs_;
};

TEST_F(ParallelKernelTest, ProfileStoreMatchesExtractor) {
  const std::vector<std::vector<NeighborProfile>> oracle =
      OracleProfiles(*engine_, refs_);
  for (const size_t cache_bytes : {size_t{0}, size_t{64} << 20}) {
    PropagationOptions options = engine_->config().propagation;
    options.cache_bytes = cache_bytes;
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << "cache=" << cache_bytes
                                        << " threads=" << threads);
      ThreadPool pool(threads);
      const ProfileStore store = ProfileStore::Build(
          engine_->propagation_engine(), engine_->paths(), options, refs_,
          &pool);
      ASSERT_EQ(store.refs(), refs_);
      ASSERT_EQ(store.num_paths(), engine_->paths().size());
      for (size_t p = 0; p < store.num_paths(); ++p) {
        ASSERT_EQ(store.path(p).offsets.size(), refs_.size() + 1);
        for (size_t i = 0; i < refs_.size(); ++i) {
          ExpectSliceIs(store, p, i, oracle[i][p]);
        }
      }
    }
  }
}

TEST_F(ParallelKernelTest, KernelIsBitIdenticalAcrossThreadCounts) {
  const auto serial =
      ReferencePairMatrices(OracleProfiles(*engine_, refs_), engine_->model());

  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const ProfileStore store = ProfileStore::Build(
        engine_->propagation_engine(), engine_->paths(),
        engine_->config().propagation, refs_, &pool,
        /*min_parallel_refs=*/2);
    const auto parallel = ComputePairMatrices(store, engine_->model(), &pool);
    ExpectBitIdentical(parallel.first, serial.first);
    ExpectBitIdentical(parallel.second, serial.second);
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

// The incremental-catalog seam: a store spliced with Update — path masks
// on the re-propagated positions, appended references — must equal Build
// over the combined references slab for slab, and matrices patched with
// UpdatePairMatrices must be bit-identical to a full fill over it, with
// conservative extra dirty marks.
TEST_F(ParallelKernelTest, UpdatePairMatricesMatchesFullFill) {
  ASSERT_GE(refs_.size(), 20u);
  const size_t old_n = refs_.size() - 8;  // last 8 refs play the append
  const std::vector<int32_t> old_refs(refs_.begin(),
                                      refs_.begin() + old_n);
  const std::vector<int32_t> new_refs(refs_.begin() + old_n, refs_.end());
  const size_t num_paths = engine_->paths().size();

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadPool pool(threads);
    ProfileStore store = ProfileStore::Build(
        engine_->propagation_engine(), engine_->paths(),
        engine_->config().propagation, old_refs, &pool);
    const auto old_matrices =
        ComputePairMatrices(store, engine_->model(), &pool);

    // Mark every 5th existing position dirty, each on a different subset
    // of the paths — their profiles are unchanged, and the conservative
    // re-mark must not change a single bit.
    std::vector<size_t> positions;
    std::vector<uint64_t> masks;
    std::vector<char> dirty(refs_.size(), 0);
    for (size_t i = 0; i < old_n; i += 5) {
      positions.push_back(i);
      masks.push_back((uint64_t{1} << (i % num_paths)) |
                      (i % 3 == 0 ? 1 : 0));
      dirty[i] = 1;
    }
    for (size_t i = old_n; i < refs_.size(); ++i) {
      dirty[i] = 1;
    }
    store.Update(engine_->propagation_engine(), engine_->paths(),
                 engine_->config().propagation, positions, new_refs, &pool,
                 ProfileStore::kMinParallelRefs, /*shared_cache=*/nullptr,
                 /*shared_workspaces=*/nullptr, &masks);
    const ProfileStore full = ProfileStore::Build(
        engine_->propagation_engine(), engine_->paths(),
        engine_->config().propagation, refs_, &pool);
    ExpectSameSlices(store, full);

    const auto patched =
        UpdatePairMatrices(store, engine_->model(), dirty,
                           old_matrices.first, old_matrices.second, &pool);
    const auto refilled = ComputePairMatrices(full, engine_->model(), &pool);
    ExpectBitIdentical(patched.first, refilled.first);
    ExpectBitIdentical(patched.second, refilled.second);
  }
}

// Update re-propagates only the masked-in paths of a dirty position and
// copies every other slice: a masked-out slice keeps its old bytes even
// when a re-propagation would change them.
TEST_F(ParallelKernelTest, UpdateKeepsMaskedOutSlices) {
  const std::vector<std::vector<NeighborProfile>> oracle =
      OracleProfiles(*engine_, refs_);
  const size_t num_paths = engine_->paths().size();
  ASSERT_GE(num_paths, 2u);
  ASSERT_LE(num_paths, 64u);
  // Old slices that no propagation produces: one entry on a tuple id past
  // every table, different per (position, path).
  const auto stale = [](size_t r, size_t p) {
    return NeighborProfile(std::vector<ProfileEntry>{
        {static_cast<int32_t>(1000000 + 100 * r + p), 0.25, 0.5}});
  };
  std::vector<std::vector<NeighborProfile>> old_profiles(refs_.size());
  for (size_t r = 0; r < refs_.size(); ++r) {
    for (size_t p = 0; p < num_paths; ++p) {
      old_profiles[r].push_back(stale(r, p));
    }
  }
  // Dirty positions 1, 4, 7, ...: position 3k+1 recomputes path k mod P
  // only; every other position is clean.
  std::vector<size_t> positions;
  std::vector<uint64_t> masks;
  for (size_t r = 1; r < refs_.size(); r += 3) {
    masks.push_back(uint64_t{1} << (positions.size() % num_paths));
    positions.push_back(r);
  }
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadPool pool(threads);
    ProfileStore store = ProfileStore::FromProfiles(refs_, old_profiles);
    store.Update(engine_->propagation_engine(), engine_->paths(),
                 engine_->config().propagation, positions, {}, &pool,
                 ProfileStore::kMinParallelRefs, /*shared_cache=*/nullptr,
                 /*shared_workspaces=*/nullptr, &masks);
    ASSERT_EQ(store.refs(), refs_);
    std::vector<uint64_t> mask_of(refs_.size(), 0);
    for (size_t k = 0; k < positions.size(); ++k) {
      mask_of[positions[k]] = masks[k];
    }
    for (size_t p = 0; p < num_paths; ++p) {
      for (size_t r = 0; r < refs_.size(); ++r) {
        ExpectSliceIs(store, p, r,
                      ((mask_of[r] >> p) & 1) != 0 ? oracle[r][p]
                                                   : stale(r, p));
      }
    }
  }
}

// All-dirty degenerates to a full fill; the partial candidate build must
// cover exactly the same pairs.
TEST_F(ParallelKernelTest, UpdatePairMatricesAllDirtyMatchesFullFill) {
  const ProfileStore store = ProfileStore::Build(
      engine_->propagation_engine(), engine_->paths(),
      engine_->config().propagation, refs_, /*pool=*/nullptr);
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
      UpdatePairMatrices(store, engine_->model(), dirty, stale_resem,
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
