// Hub slices: a store slice that points at the memo's shared suffix must
// read exactly the bits of the explicit profile it stands for, whatever the
// memo held when it was built, and the candidate builder may mark the pairs
// under one hub without reading an entry.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "common/thread_pool.h"
#include "core/distinct.h"
#include "dblp/generator.h"
#include "dblp/schema.h"
#include "obs/memory.h"
#include "prop/workspace.h"
#include "sim/fused_kernel.h"
#include "sim/parallel_kernel.h"
#include "sim/profile_store.h"

namespace distinct {
namespace {

void ExpectBitIdentical(const PairMatrix& a, const PairMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      EXPECT_EQ(std::bit_cast<uint64_t>(a.at(i, j)),
                std::bit_cast<uint64_t>(b.at(i, j)))
          << "cell (" << i << ", " << j << ")";
    }
  }
}

void ExpectSameEntries(const NeighborProfile& got,
                       const NeighborProfile& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t e = 0; e < want.size(); ++e) {
    EXPECT_EQ(got.entries()[e].tuple, want.entries()[e].tuple);
    EXPECT_EQ(std::bit_cast<uint64_t>(got.entries()[e].forward),
              std::bit_cast<uint64_t>(want.entries()[e].forward));
    EXPECT_EQ(std::bit_cast<uint64_t>(got.entries()[e].reverse),
              std::bit_cast<uint64_t>(want.entries()[e].reverse));
  }
}

/// The hub tuple of slice `r`, -1 for an explicit slice.
int32_t HubOf(const ProfileStore::Path& path, size_t r) {
  return path.is_hub(r) ? path.hubs[path.hub_of[r]].hub : -1;
}

/// "Wei Wang" of the seed-42 corpus (`distinct_cli generate --seed=42`)
/// under a trained engine, with its oracle profiles (one
/// PropagationEngine::Compute per reference and path) and the
/// all-explicit store FromProfiles lays out over them.
class HubSliceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto dataset = GenerateDblpDataset(GeneratorConfig{});
    DISTINCT_CHECK(dataset.ok());
    dataset_ = new DblpDataset(*std::move(dataset));
    auto engine =
        Distinct::Create(dataset_->db, DblpReferenceSpec(), DistinctConfig{});
    DISTINCT_CHECK(engine.ok());
    engine_ = new Distinct(*std::move(engine));
    auto refs = engine_->RefsForName("Wei Wang");
    DISTINCT_CHECK(refs.ok() && refs->size() >= 100);
    refs_ = new std::vector<int32_t>(*std::move(refs));
    profiles_ = new std::vector<std::vector<NeighborProfile>>(
        testing_util::OracleProfiles(*engine_, *refs_));
  }

  static void TearDownTestSuite() {
    delete profiles_;
    delete refs_;
    delete engine_;
    delete dataset_;
  }

  /// A store over the name on `memo`, at 4 threads.
  static ProfileStore BuildWith(SubtreeCache& memo) {
    ThreadPool pool(4);
    return ProfileStore::Build(engine_->propagation_engine(),
                               engine_->paths(),
                               engine_->config().propagation, *refs_, &pool,
                               ProfileStore::kMinParallelRefs, &memo);
  }

  static ProfileStore ExplicitStore() {
    return ProfileStore::FromProfiles(*refs_, *profiles_);
  }

  static DblpDataset* dataset_;
  static Distinct* engine_;
  static std::vector<int32_t>* refs_;
  static std::vector<std::vector<NeighborProfile>>* profiles_;
};

DblpDataset* HubSliceTest::dataset_ = nullptr;
Distinct* HubSliceTest::engine_ = nullptr;
std::vector<int32_t>* HubSliceTest::refs_ = nullptr;
std::vector<std::vector<NeighborProfile>>* HubSliceTest::profiles_ = nullptr;

// The memo at 64 MiB, at capacity 0, and too small for any one suffix: the
// last two hand every reference a copy the memo does not keep. All three
// stores expand to the explicit profiles and fill the explicit store's
// matrices, bit for bit.
TEST_F(HubSliceTest, EveryMemoCapacityReadsTheExplicitBits) {
  const ProfileStore explicit_store = ExplicitStore();
  ThreadPool pool(4);
  const auto want =
      ComputePairMatrices(explicit_store, engine_->model(), &pool);
  const auto oracle = ReferencePairMatrices(*profiles_, engine_->model());
  ExpectBitIdentical(want.first, oracle.first);
  ExpectBitIdentical(want.second, oracle.second);

  for (const size_t cache_bytes : {size_t{64} << 20, size_t{0}, size_t{16}}) {
    SCOPED_TRACE(::testing::Message() << "memo bytes " << cache_bytes);
    SubtreeCache memo(cache_bytes);
    const ProfileStore store = BuildWith(memo);
    if (cache_bytes < 1024) {
      EXPECT_EQ(memo.stats().entries, 0);  // nothing stored...
    }
    size_t hub_slices = 0;
    size_t shared_hubs = 0;  // slice pairs under one hub tuple
    size_t shared_copies = 0;  // ...that also share one suffix copy
    for (size_t p = 0; p < store.num_paths(); ++p) {
      const ProfileStore::Path& path = store.path(p);
      for (size_t r = 0; r < store.num_refs(); ++r) {
        SCOPED_TRACE(::testing::Message() << "path " << p << " slice " << r);
        ExpectSameEntries(path.Expand(r), (*profiles_)[r][p]);
        if (!path.is_hub(r)) {
          continue;
        }
        ++hub_slices;
        for (size_t s = 0; s < r; ++s) {
          if (HubOf(path, s) == HubOf(path, r)) {
            ++shared_hubs;
            shared_copies += path.hubs[path.hub_of[s]].suffix ==
                             path.hubs[path.hub_of[r]].suffix;
          }
        }
      }
    }
    EXPECT_GT(hub_slices, 0u);
    EXPECT_GT(shared_hubs, 0u);
    if (cache_bytes < 1024) {
      EXPECT_EQ(shared_copies, 0u);  // ...so each slice pins its own copy
    } else {
      EXPECT_EQ(shared_copies, shared_hubs);  // the memo's one copy
    }
    const auto got = ComputePairMatrices(store, engine_->model(), &pool);
    ExpectBitIdentical(got.first, want.first);
    ExpectBitIdentical(got.second, want.second);
  }
}

// The store's kProfileArena gauge counts every suffix its hub slices pin,
// each distinct copy once, on top of the same slab bytes: with the memo's
// one copy per hub it counts fewer suffix bytes than with a copy per slice.
TEST_F(HubSliceTest, ArenaGaugeCountsEachPinnedSuffixOnce) {
  auto& tracker = obs::MemoryTracker::Global();
  int64_t slab_bytes[2] = {0, 0};
  int64_t suffix_bytes[2] = {0, 0};
  for (const int copies : {0, 1}) {
    SCOPED_TRACE(::testing::Message() << "copy per slice " << copies);
    SubtreeCache memo(copies ? 0 : size_t{64} << 20);
    const int64_t before =
        tracker.CurrentBytes(obs::MemoryTracker::kProfileArena);
    const ProfileStore store = BuildWith(memo);
    const int64_t gauge =
        tracker.CurrentBytes(obs::MemoryTracker::kProfileArena) - before;
    std::set<const SubtreeDistribution*> distinct;
    int64_t per_slice = 0;
    for (size_t p = 0; p < store.num_paths(); ++p) {
      for (const HubSlice& hub : store.path(p).hubs) {
        const auto bytes = static_cast<int64_t>(hub.suffix->ByteSize());
        per_slice += bytes;
        if (distinct.insert(hub.suffix.get()).second) {
          suffix_bytes[copies] += bytes;
        }
      }
    }
    if (copies) {
      EXPECT_EQ(suffix_bytes[copies], per_slice);
    } else {
      EXPECT_LT(suffix_bytes[copies], per_slice);
    }
    slab_bytes[copies] = gauge - suffix_bytes[copies];
    EXPECT_GT(slab_bytes[copies], 0);
  }
  EXPECT_EQ(slab_bytes[0], slab_bytes[1]);
  EXPECT_LT(suffix_bytes[0], suffix_bytes[1]);
}

// On a path marked by hub (reverse-only suffix, every slice with entries a
// hub slice) the builder sets exactly the pairs under one hub — a superset
// of the pairs that share a tuple, and no pair across hubs — with and
// without a dirty mask. On a mixed path, where some slices are explicit,
// it scans the entries and sets exactly the entry scan's bits.
TEST_F(HubSliceTest, MarkByHubCoversTheEntryScan) {
  SubtreeCache memo(size_t{64} << 20);
  const ProfileStore store = BuildWith(memo);
  const ProfileStore explicit_store = ExplicitStore();
  const size_t n = store.num_refs();
  std::vector<char> dirty(n, 0);
  for (size_t r = 0; r < n; r += 7) {
    dirty[r] = 1;
  }
  const CandidateSet by_hub = CandidateSet::Build(store);
  const CandidateSet scan = CandidateSet::Build(explicit_store);
  const CandidateSet by_hub_dirty = CandidateSet::Build(store, &dirty);
  const CandidateSet scan_dirty = CandidateSet::Build(explicit_store, &dirty);

  size_t hub_paths = 0;
  size_t mixed_paths = 0;
  for (size_t p = 0; p < store.num_paths(); ++p) {
    SCOPED_TRACE(::testing::Message() << "path " << p);
    const ProfileStore::Path& path = store.path(p);
    bool explicit_entries = false;
    bool hubs = false;
    for (size_t r = 0; r < n; ++r) {
      hubs = hubs || path.is_hub(r);
      explicit_entries =
          explicit_entries || (!path.is_hub(r) && path.size(r) > 0);
    }
    if (path.by_hub) {
      ++hub_paths;
      EXPECT_FALSE(explicit_entries);
    }
    if (hubs && explicit_entries) {
      ++mixed_paths;
      EXPECT_FALSE(path.by_hub);
    }
    for (size_t i = 1; i < n; ++i) {
      for (size_t j = 0; j < i; ++j) {
        const bool shares = scan.contains(p, i, j);
        const bool any_dirty = dirty[i] || dirty[j];
        EXPECT_EQ(scan_dirty.contains(p, i, j), shares && any_dirty);
        if (path.by_hub) {
          const bool same_hub = HubOf(path, i) == HubOf(path, j);
          EXPECT_TRUE(!shares || same_hub);
          EXPECT_EQ(by_hub.contains(p, i, j), same_hub);
          EXPECT_EQ(by_hub_dirty.contains(p, i, j), same_hub && any_dirty);
        } else {
          EXPECT_EQ(by_hub.contains(p, i, j), shares);
          EXPECT_EQ(by_hub_dirty.contains(p, i, j), shares && any_dirty);
        }
      }
    }
  }
  EXPECT_GT(hub_paths, 0u);
  EXPECT_GT(mixed_paths, 0u);
}

// A path that ends on the start node: two references of one proceedings,
// one paper each, share the hub whose suffix holds only their own two
// Publish rows. Each drops its origin, so their slices are {the other} and
// share no tuple. Marking them by hub is allowed, and both cells stay +0.0.
TEST(HubSliceEdgeTest, HubOfOnlyTheTwoOriginsFillsPositiveZero) {
  auto empty = MakeEmptyDblpDatabase();
  ASSERT_TRUE(empty.ok());
  Database db = *std::move(empty);
  Table* authors = *db.FindMutableTable(kAuthorsTable);
  ASSERT_TRUE(authors->AppendRow({Value::Int(0), Value::Str("A One")}).ok());
  ASSERT_TRUE(authors->AppendRow({Value::Int(1), Value::Str("B Two")}).ok());
  Table* conferences = *db.FindMutableTable(kConferencesTable);
  ASSERT_TRUE(conferences
                  ->AppendRow({Value::Int(0), Value::Str("VLDB"),
                               Value::Str("P1")})
                  .ok());
  Table* proceedings = *db.FindMutableTable(kProceedingsTable);
  ASSERT_TRUE(proceedings
                  ->AppendRow({Value::Int(0), Value::Int(0),
                               Value::Int(1997), Value::Str("CityA")})
                  .ok());
  Table* publications = *db.FindMutableTable(kPublicationsTable);
  Table* publish = *db.FindMutableTable(kPublishTable);
  for (int64_t p = 0; p < 2; ++p) {
    ASSERT_TRUE(publications
                    ->AppendRow({Value::Int(p),
                                 Value::Str("Paper " + std::to_string(p)),
                                 Value::Int(0)})
                    .ok());
    ASSERT_TRUE(
        publish->AppendRow({Value::Int(p), Value::Int(p), Value::Int(p)})
            .ok());
  }
  DistinctConfig config;
  config.supervised = false;
  auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());

  int checked = 0;
  for (const JoinPath& path : engine->paths()) {
    const PathShape shape = ShapePath(path, engine->propagation_engine()
                                                .link()
                                                .schema(),
                                      /*exclude_start_tuple=*/true);
    if (!shape.reverse_suffix || shape.node_at.back() != shape.node_at[0]) {
      continue;  // only reverse-suffix paths back to Publish
    }
    const ProfileStore store = ProfileStore::Build(
        engine->propagation_engine(), {path}, engine->config().propagation,
        {0, 1});
    const ProfileStore::Path& slices = store.path(0);
    if (!slices.by_hub || HubOf(slices, 0) != HubOf(slices, 1) ||
        slices.hubs[slices.hub_of[0]].suffix->size() != 2) {
      continue;  // not a hub over exactly the two origins
    }
    ++checked;
    ASSERT_EQ(slices.size(0), 1u);
    ASSERT_EQ(slices.size(1), 1u);
    EXPECT_EQ(slices.Expand(0).entries()[0].tuple, 1);
    EXPECT_EQ(slices.Expand(1).entries()[0].tuple, 0);
    EXPECT_TRUE(CandidateSet::Build(store).contains(0, 1, 0));
    const FusedPathFeatures features = FusedMergeJoin(slices, 1, 0);
    EXPECT_EQ(std::bit_cast<uint64_t>(features.resemblance), 0u);
    EXPECT_EQ(std::bit_cast<uint64_t>(features.walk), 0u);
    for (const double weight : {1.0, -1.0}) {
      const SimilarityModel model({weight}, {weight}, {"hub path"});
      const auto [resem, walk] = ComputePairMatrices(store, model);
      EXPECT_EQ(std::bit_cast<uint64_t>(resem.at(1, 0)), 0u);
      EXPECT_EQ(std::bit_cast<uint64_t>(walk.at(1, 0)), 0u);
    }
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace distinct
