#include "sim/fused_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "../test_util.h"
#include "cluster/agglomerative.h"
#include "common/rng.h"
#include "core/distinct.h"
#include "dblp/generator.h"
#include "dblp/schema.h"
#include "obs/metrics.h"
#include "prop/workspace.h"
#include "sim/feature_vector.h"
#include "sim/parallel_kernel.h"
#include "sim/profile_store.h"

namespace distinct {
namespace {

// ---------------------------------------------------------------------------
// Naive hash-map reference implementations. Deliberately share no code (and
// no iteration order) with the merge-join kernels: resemblance walks the key
// union of two hash maps, the walks probe one map per direction. Agreement
// is up to floating-point reassociation, hence EXPECT_NEAR.
// ---------------------------------------------------------------------------

double NaiveResemblance(const NeighborProfile& a, const NeighborProfile& b) {
  if (a.empty() || b.empty()) {
    return 0.0;
  }
  std::unordered_map<int32_t, double> fa;
  std::unordered_map<int32_t, double> fb;
  std::set<int32_t> keys;
  for (const ProfileEntry& e : a.entries()) {
    fa[e.tuple] = e.forward;
    keys.insert(e.tuple);
  }
  for (const ProfileEntry& e : b.entries()) {
    fb[e.tuple] = e.forward;
    keys.insert(e.tuple);
  }
  double numerator = 0.0;
  double denominator = 0.0;
  for (const int32_t t : keys) {
    const auto ia = fa.find(t);
    const auto ib = fb.find(t);
    const double pa = ia == fa.end() ? 0.0 : ia->second;
    const double pb = ib == fb.end() ? 0.0 : ib->second;
    numerator += std::min(pa, pb);
    denominator += std::max(pa, pb);
  }
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double NaiveSymmetricWalk(const NeighborProfile& a, const NeighborProfile& b) {
  std::unordered_map<int32_t, const ProfileEntry*> index;
  for (const ProfileEntry& e : b.entries()) {
    index[e.tuple] = &e;
  }
  double ab = 0.0;
  double ba = 0.0;
  for (const ProfileEntry& e : a.entries()) {
    const auto it = index.find(e.tuple);
    if (it != index.end()) {
      ab += e.forward * it->second->reverse;
      ba += it->second->forward * e.reverse;
    }
  }
  return 0.5 * (ab + ba);
}

/// Random per-reference profiles over a small shared tuple universe so
/// overlap, disjointness, and empties all occur. profiles[ref][path].
std::vector<std::vector<NeighborProfile>> RandomProfiles(Rng& rng,
                                                         size_t num_refs,
                                                         size_t num_paths) {
  std::vector<std::vector<NeighborProfile>> profiles(num_refs);
  for (size_t r = 0; r < num_refs; ++r) {
    for (size_t p = 0; p < num_paths; ++p) {
      std::vector<ProfileEntry> entries;
      if (!rng.Bernoulli(0.15)) {  // 15%: empty profile
        for (int t = 0; t < 24; ++t) {
          if (!rng.Bernoulli(0.3)) {
            continue;
          }
          // 10%: zero forward (exercises zero-denominator handling).
          const double fwd = rng.Bernoulli(0.1) ? 0.0 : rng.UniformDouble();
          entries.push_back(ProfileEntry{t, fwd, rng.UniformDouble()});
        }
      }
      profiles[r].emplace_back(std::move(entries));
    }
  }
  return profiles;
}

bool ShareAnyTuple(const std::vector<NeighborProfile>& a,
                   const std::vector<NeighborProfile>& b) {
  for (size_t p = 0; p < a.size(); ++p) {
    for (const ProfileEntry& ea : a[p].entries()) {
      for (const ProfileEntry& eb : b[p].entries()) {
        if (ea.tuple == eb.tuple) {
          return true;
        }
      }
    }
  }
  return false;
}

/// Reference ids 0..n-1 for stores laid out from raw profiles.
std::vector<int32_t> Refs(size_t n) {
  std::vector<int32_t> refs(n);
  for (size_t r = 0; r < n; ++r) {
    refs[r] = static_cast<int32_t>(r);
  }
  return refs;
}

/// FusedPairFeatures of every ordered pair (i, j), i != j, against
/// ComputePairFeatures over profiles[i] and profiles[j], bit for bit: the
/// fill passes only i > j, but training passes its pairs in sampling order.
void ExpectFusedPairFeaturesAreThreePass(
    const ProfileStore& store,
    const std::vector<std::vector<NeighborProfile>>& profiles) {
  ASSERT_EQ(store.num_refs(), profiles.size());
  for (size_t i = 0; i < profiles.size(); ++i) {
    for (size_t j = 0; j < profiles.size(); ++j) {
      if (i == j) {
        continue;
      }
      const PairFeatures fused = FusedPairFeatures(store, i, j);
      const PairFeatures reference =
          ComputePairFeatures(profiles[i], profiles[j]);
      ASSERT_EQ(fused.resemblance.size(), reference.resemblance.size());
      ASSERT_EQ(fused.walk.size(), reference.walk.size());
      for (size_t p = 0; p < fused.resemblance.size(); ++p) {
        EXPECT_EQ(std::bit_cast<uint64_t>(fused.resemblance[p]),
                  std::bit_cast<uint64_t>(reference.resemblance[p]))
            << "pair (" << i << ", " << j << ") path " << p;
        EXPECT_EQ(std::bit_cast<uint64_t>(fused.walk[p]),
                  std::bit_cast<uint64_t>(reference.walk[p]))
            << "pair (" << i << ", " << j << ") path " << p;
      }
    }
  }
}

class FusedDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FusedDifferentialTest, MatchesNaiveHashMapReference) {
  Rng rng(GetParam());
  const size_t kRefs = 12;
  const size_t kPaths = 3;
  const auto profiles = RandomProfiles(rng, kRefs, kPaths);
  const ProfileStore store = ProfileStore::FromProfiles(Refs(kRefs), profiles);
  ASSERT_EQ(store.num_refs(), kRefs);
  ASSERT_EQ(store.num_paths(), kPaths);

  for (size_t i = 1; i < kRefs; ++i) {
    for (size_t j = 0; j < i; ++j) {
      const PairFeatures fused = FusedPairFeatures(store, i, j);
      ASSERT_EQ(fused.resemblance.size(), kPaths);
      for (size_t p = 0; p < kPaths; ++p) {
        EXPECT_NEAR(fused.resemblance[p],
                    NaiveResemblance(profiles[i][p], profiles[j][p]), 1e-12)
            << "pair (" << i << ", " << j << ") path " << p;
        EXPECT_NEAR(fused.walk[p],
                    NaiveSymmetricWalk(profiles[i][p], profiles[j][p]), 1e-12)
            << "pair (" << i << ", " << j << ") path " << p;
      }
    }
  }
}

TEST_P(FusedDifferentialTest, BitIdenticalToThreePassReference) {
  Rng rng(GetParam() + 1000);
  const size_t kRefs = 10;
  const auto profiles = RandomProfiles(rng, kRefs, /*num_paths=*/3);
  ExpectFusedPairFeaturesAreThreePass(
      ProfileStore::FromProfiles(Refs(kRefs), profiles), profiles);
}

TEST_P(FusedDifferentialTest, CandidateSetMatchesBruteForceOverlap) {
  Rng rng(GetParam() + 2000);
  const size_t kRefs = 14;
  const auto profiles = RandomProfiles(rng, kRefs, /*num_paths=*/2);
  const ProfileStore store = ProfileStore::FromProfiles(Refs(kRefs), profiles);
  const CandidateSet candidates = CandidateSet::Build(store);
  ASSERT_EQ(candidates.num_refs(), kRefs);

  int64_t expected_count = 0;
  for (size_t i = 1; i < kRefs; ++i) {
    for (size_t j = 0; j < i; ++j) {
      const bool overlap = ShareAnyTuple(profiles[i], profiles[j]);
      EXPECT_EQ(candidates.contains(i, j), overlap)
          << "pair (" << i << ", " << j << ")";
      expected_count += overlap ? 1 : 0;
      if (!overlap) {
        // Skipping a non-candidate is exact: every feature is zero.
        const PairFeatures features = FusedPairFeatures(store, i, j);
        for (size_t p = 0; p < features.resemblance.size(); ++p) {
          EXPECT_EQ(features.resemblance[p], 0.0);
          EXPECT_EQ(features.walk[p], 0.0);
        }
      }
    }
  }
  EXPECT_EQ(candidates.count(), expected_count);
}

bool ShareTupleOnPath(const NeighborProfile& a, const NeighborProfile& b) {
  for (const ProfileEntry& ea : a.entries()) {
    for (const ProfileEntry& eb : b.entries()) {
      if (ea.tuple == eb.tuple) {
        return true;
      }
    }
  }
  return false;
}

/// Every (pair, path) bit of `set`, the union query and the union count
/// against brute-force overlap. With `dirty`, a cell without a dirty
/// endpoint must have no bit on any path.
void ExpectPathBitsMatchBruteForce(
    const CandidateSet& set,
    const std::vector<std::vector<NeighborProfile>>& profiles,
    const std::vector<char>* dirty = nullptr) {
  ASSERT_EQ(set.num_refs(), profiles.size());
  int64_t union_count = 0;
  for (size_t i = 1; i < profiles.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      const bool in_scope = dirty == nullptr || (*dirty)[i] || (*dirty)[j];
      bool any = false;
      for (size_t p = 0; p < set.num_paths(); ++p) {
        const bool expected =
            in_scope && ShareTupleOnPath(profiles[i][p], profiles[j][p]);
        EXPECT_EQ(set.contains(p, i, j), expected)
            << "pair (" << i << ", " << j << ") path " << p;
        any = any || expected;
      }
      EXPECT_EQ(set.contains(i, j), any) << "pair (" << i << ", " << j << ")";
      union_count += any ? 1 : 0;
    }
  }
  EXPECT_EQ(set.count(), union_count);
}

/// RandomProfiles plus one last path on which every tuple is private, so
/// no pair shares anything there.
std::vector<std::vector<NeighborProfile>> RandomProfilesWithPrivatePath(
    Rng& rng, size_t num_refs, size_t num_paths) {
  auto profiles = RandomProfiles(rng, num_refs, num_paths - 1);
  for (size_t r = 0; r < num_refs; ++r) {
    profiles[r].emplace_back(std::vector<ProfileEntry>{
        {static_cast<int32_t>(1000 + r), 1.0, 1.0}});
  }
  return profiles;
}

/// Dense profiles: each tuple of a 30-tuple universe held with
/// probability 0.2 and no forced empty slices, so tuple groups are large
/// and most pairs are candidates on every path.
std::vector<std::vector<NeighborProfile>> DenseProfiles(Rng& rng,
                                                        size_t num_refs,
                                                        size_t num_paths) {
  std::vector<std::vector<NeighborProfile>> profiles(num_refs);
  for (size_t r = 0; r < num_refs; ++r) {
    for (size_t p = 0; p < num_paths; ++p) {
      std::vector<ProfileEntry> entries;
      for (int32_t t = 0; t < 30; ++t) {
        if (rng.Bernoulli(0.2)) {
          entries.push_back(
              ProfileEntry{t, rng.UniformDouble(), rng.UniformDouble()});
        }
      }
      profiles[r].emplace_back(std::move(entries));
    }
  }
  return profiles;
}

/// Build(store) against brute-force overlap, and the masked build at both
/// ends of the mask: every reference dirty gives the same words on every
/// path, none dirty gives no bits at all.
void ExpectFullAndMaskedBuildsMatchBruteForce(
    const std::vector<std::vector<NeighborProfile>>& profiles) {
  const ProfileStore store =
      ProfileStore::FromProfiles(Refs(profiles.size()), profiles);
  const CandidateSet full = CandidateSet::Build(store);
  ASSERT_EQ(full.num_paths(), profiles[0].size());
  ExpectPathBitsMatchBruteForce(full, profiles);

  const size_t n = profiles.size();
  const size_t cells = n * (n - 1) / 2;
  const std::vector<char> all_dirty(n, 1);
  const CandidateSet all = CandidateSet::Build(store, &all_dirty);
  EXPECT_EQ(all.count(), full.count());
  for (size_t p = 0; p < full.num_paths(); ++p) {
    ASSERT_EQ(all.has_path(p), full.has_path(p)) << "path " << p;
    if (!full.has_path(p)) {
      continue;
    }
    for (size_t pos = 0; pos < cells; pos += 64) {
      const size_t len = std::min<size_t>(64, cells - pos);
      EXPECT_EQ(all.Window(p, pos, len), full.Window(p, pos, len))
          << "path " << p << " bit " << pos;
    }
  }

  const std::vector<char> none_dirty(n, 0);
  const CandidateSet none = CandidateSet::Build(store, &none_dirty);
  for (size_t p = 0; p < none.num_paths(); ++p) {
    EXPECT_FALSE(none.has_path(p)) << "path " << p;
  }
  EXPECT_EQ(none.count(), 0);
}

// Both builds, full and masked, on a sparse and on a dense input.
TEST_P(FusedDifferentialTest, PerPathBitsMatchBruteForceForBothMachines) {
  Rng rng(GetParam() + 4000);
  // n >= 64: triangle rows span several words at every alignment.
  const size_t kRefs = 70;
  const size_t kPaths = 4;
  {
    SCOPED_TRACE("sparse");
    const auto profiles = RandomProfilesWithPrivatePath(rng, kRefs, kPaths);
    ExpectFullAndMaskedBuildsMatchBruteForce(profiles);
    const CandidateSet set =
        CandidateSet::Build(ProfileStore::FromProfiles(Refs(kRefs), profiles));
    EXPECT_FALSE(set.has_path(kPaths - 1));  // private tuples only
  }
  {
    SCOPED_TRACE("dense");
    ExpectFullAndMaskedBuildsMatchBruteForce(
        DenseProfiles(rng, kRefs, /*num_paths=*/2));
  }
}

TEST_P(FusedDifferentialTest, PartialPerPathBitsMatchBruteForceOnDirtyCells) {
  Rng rng(GetParam() + 5000);
  const size_t kRefs = 70;
  const size_t kPaths = 4;
  const auto profiles = RandomProfilesWithPrivatePath(rng, kRefs, kPaths);
  const ProfileStore store = ProfileStore::FromProfiles(Refs(kRefs), profiles);
  std::vector<char> dirty(kRefs, 0);
  for (size_t r = 0; r < kRefs; ++r) {
    dirty[r] = rng.Bernoulli(0.15) ? 1 : 0;
  }
  dirty[kRefs / 2] = 1;
  const CandidateSet set = CandidateSet::Build(store, &dirty);
  ASSERT_EQ(set.num_paths(), kPaths);
  ExpectPathBitsMatchBruteForce(set, profiles, &dirty);
  EXPECT_FALSE(set.has_path(kPaths - 1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedDifferentialTest,
                         ::testing::Values(11, 42, 777, 123456));

// The same check on an engine store with hub slices: "Wei Wang" of the
// seed-42 corpus (`distinct_cli generate --seed=42`) under a trained
// engine, built on a 64 MiB memo at 4 threads, against the oracle's
// one PropagationEngine::Compute per (reference, path).
TEST(FusedHubSliceTest, BitIdenticalToThreePassReference) {
  auto dataset = GenerateDblpDataset(GeneratorConfig{});
  ASSERT_TRUE(dataset.ok());
  auto engine =
      Distinct::Create(dataset->db, DblpReferenceSpec(), DistinctConfig{});
  ASSERT_TRUE(engine.ok());
  auto refs = engine->RefsForName("Wei Wang");
  ASSERT_TRUE(refs.ok());
  ThreadPool pool(4);
  SubtreeCache memo(size_t{64} << 20);
  const ProfileStore store = ProfileStore::Build(
      engine->propagation_engine(), engine->paths(),
      engine->config().propagation, *refs, &pool,
      ProfileStore::kMinParallelRefs, &memo);
  size_t hub_slices = 0;
  for (size_t p = 0; p < store.num_paths(); ++p) {
    for (size_t r = 0; r < store.num_refs(); ++r) {
      hub_slices += store.path(p).is_hub(r) ? 1 : 0;
    }
  }
  EXPECT_GT(hub_slices, 0u);
  ExpectFusedPairFeaturesAreThreePass(
      store, testing_util::OracleProfiles(*engine, *refs));
}

// ---------------------------------------------------------------------------
// Hand-built edge cases.
// ---------------------------------------------------------------------------

TEST(FusedKernelEdgeTest, EmptyProfilesYieldZeroFeatures) {
  std::vector<std::vector<NeighborProfile>> profiles(2);
  profiles[0].emplace_back(
      std::vector<ProfileEntry>{{1, 0.5, 0.5}, {2, 0.5, 0.5}});
  profiles[1].emplace_back();  // empty profile on the only path
  const ProfileStore store = ProfileStore::FromProfiles(Refs(2), profiles);
  EXPECT_EQ(store.path(0).size(0), 2u);
  EXPECT_EQ(store.path(0).size(1), 0u);

  const FusedPathFeatures features = FusedMergeJoin(store.path(0), 1, 0);
  EXPECT_EQ(features.resemblance, 0.0);
  EXPECT_EQ(features.walk, 0.0);
  EXPECT_FALSE(CandidateSet::Build(store).contains(1, 0));
}

TEST(FusedKernelEdgeTest, ZeroForwardMassGivesZeroDenominator) {
  // Entries exist and tuples overlap, but every forward probability is 0:
  // the resemblance denominator is 0, so resemblance must be 0 (not NaN).
  std::vector<std::vector<NeighborProfile>> profiles(2);
  profiles[0].emplace_back(std::vector<ProfileEntry>{{1, 0.0, 0.4}});
  profiles[1].emplace_back(std::vector<ProfileEntry>{{1, 0.0, 0.7}});
  const ProfileStore store = ProfileStore::FromProfiles(Refs(2), profiles);
  const FusedPathFeatures features = FusedMergeJoin(store.path(0), 1, 0);
  EXPECT_EQ(features.resemblance, 0.0);
  EXPECT_EQ(features.walk, 0.0);  // forward factors are 0 in both directions
  // Tuples overlap, so the pair is still a candidate.
  EXPECT_TRUE(CandidateSet::Build(store).contains(1, 0));
}

TEST(FusedKernelEdgeTest, DisjointTuplesAreNotCandidates) {
  std::vector<std::vector<NeighborProfile>> profiles(3);
  profiles[0].emplace_back(std::vector<ProfileEntry>{{1, 1.0, 1.0}});
  profiles[1].emplace_back(std::vector<ProfileEntry>{{2, 1.0, 1.0}});
  profiles[2].emplace_back(std::vector<ProfileEntry>{{1, 0.5, 0.5}});
  const ProfileStore store = ProfileStore::FromProfiles(Refs(3), profiles);
  const CandidateSet candidates = CandidateSet::Build(store);
  EXPECT_FALSE(candidates.contains(1, 0));
  EXPECT_FALSE(candidates.contains(2, 1));
  EXPECT_TRUE(candidates.contains(2, 0));
  EXPECT_EQ(candidates.count(), 1);
}

TEST(FusedKernelEdgeTest, ArenaSlicesAreSortedAndDuplicateFree) {
  // NeighborProfile sorts its entries; the store's slabs must preserve that
  // order (strictly increasing tuples per slice) — the merge-join relies on
  // it.
  std::vector<std::vector<NeighborProfile>> profiles(2);
  profiles[0].emplace_back(std::vector<ProfileEntry>{
      {7, 0.1, 0.1}, {2, 0.2, 0.2}, {5, 0.3, 0.3}});
  profiles[1].emplace_back(std::vector<ProfileEntry>{{9, 0.4, 0.4}, {1, 0.6, 0.6}});
  const ProfileStore store = ProfileStore::FromProfiles(Refs(2), profiles);
  const ProfileStore::Path& path = store.path(0);
  for (size_t r = 0; r < store.num_refs(); ++r) {
    for (size_t e = path.offsets[r] + 1; e < path.offsets[r + 1]; ++e) {
      EXPECT_LT(path.tuples[e - 1], path.tuples[e]);
    }
  }
  EXPECT_EQ(path.tuples.size(), 5u);
  EXPECT_EQ(path.forward,
            (std::vector<double>{0.2, 0.3, 0.1, 0.6, 0.4}));
}

// ---------------------------------------------------------------------------
// Engine-level: the fused fill vs the reference oracle on a generated
// mega-name.
// ---------------------------------------------------------------------------

void ExpectBitIdentical(const PairMatrix& a, const PairMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      EXPECT_EQ(a.at(i, j), b.at(i, j)) << "cell (" << i << ", " << j << ")";
    }
  }
}

/// A planted mega-name of 150 references: three tile rows of the fill.
class FusedKernelEngineTest : public ::testing::Test {
 protected:
  FusedKernelEngineTest() {
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
    auto engine = Distinct::Create(dataset_->db, DblpReferenceSpec(), config);
    DISTINCT_CHECK(engine.ok());
    engine_ = std::make_unique<Distinct>(*std::move(engine));

    auto refs = engine_->RefsForName("Wei Wang");
    DISTINCT_CHECK(refs.ok());
    refs_ = *std::move(refs);
    DISTINCT_CHECK(refs_.size() >= 150);
  }

  ProfileStore BuildStore(ThreadPool* pool) const {
    return ProfileStore::Build(engine_->propagation_engine(),
                               engine_->paths(),
                               engine_->config().propagation, refs_, pool,
                               /*min_parallel_refs=*/2);
  }

  /// The oracle's input: the raw profiles, profiles[i][p].
  std::vector<std::vector<NeighborProfile>> OracleProfiles() const {
    return testing_util::OracleProfiles(*engine_, refs_);
  }

  std::unique_ptr<DblpDataset> dataset_;
  std::unique_ptr<Distinct> engine_;
  std::vector<int32_t> refs_;
};

TEST_F(FusedKernelEngineTest, FusedMatchesReferenceAcrossThreadCounts) {
  const auto expected =
      ReferencePairMatrices(OracleProfiles(), engine_->model());

  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    const ProfileStore store = BuildStore(&pool);
    const auto actual = ComputePairMatrices(store, engine_->model(), &pool);
    ExpectBitIdentical(actual.first, expected.first);
    ExpectBitIdentical(actual.second, expected.second);
  }
}

TEST_F(FusedKernelEngineTest, NonCandidatePairsAreExactlyZeroInReference) {
  const CandidateSet candidates = CandidateSet::Build(BuildStore(nullptr));
  const auto matrices =
      ReferencePairMatrices(OracleProfiles(), engine_->model());
  for (size_t i = 1; i < refs_.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (!candidates.contains(i, j)) {
        EXPECT_EQ(matrices.first.at(i, j), 0.0);
        EXPECT_EQ(matrices.second.at(i, j), 0.0);
      }
    }
  }
}

TEST_F(FusedKernelEngineTest, EngineResolveAgreesAcrossKernelsAndPruning) {
  auto baseline = engine_->ResolveRefs(refs_);
  ASSERT_TRUE(baseline.ok());

  const auto oracle =
      ReferencePairMatrices(OracleProfiles(), engine_->model());
  const ClusteringResult reference = ClusterReferences(
      oracle.first, oracle.second, engine_->cluster_options());

  EXPECT_EQ(baseline->num_clusters, reference.num_clusters);
  EXPECT_EQ(baseline->assignment, reference.assignment);
}

// ---------------------------------------------------------------------------
// Fill-level: a universal single-tuple path makes every pair a union
// candidate, so only the per-path bits keep the hub paths' joins off the
// pairs that share nothing there.
// ---------------------------------------------------------------------------

/// Path 0 is one tuple every reference holds (a constant attribute such as
/// a single publisher). Paths 1-3 each partition the references into
/// disjoint communities (hub tuple + a few community tuples + one private
/// tuple; ~10% of slices empty). Path 4 holds only private tuples.
std::vector<std::vector<NeighborProfile>> UniversalPlusHubsProfiles(
    size_t num_refs, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<NeighborProfile>> profiles(num_refs);
  for (size_t r = 0; r < num_refs; ++r) {
    const auto ref = static_cast<int32_t>(r);
    // Every 7th reference reaches the universal tuple with forward 0: two
    // of them that share nothing else get +0.0 features on every path they
    // share, so only a −0.0-free running sum leaves their cells +0.0.
    profiles[r].emplace_back(std::vector<ProfileEntry>{
        {7, r % 7 == 0 ? 0.0 : 1.0, 1.0 / static_cast<double>(num_refs)}});
    for (int32_t p = 1; p <= 3; ++p) {
      std::vector<ProfileEntry> entries;
      if (!rng.Bernoulli(0.1)) {
        const int32_t community = ref % (3 + p);
        std::set<int32_t> tuples = {100 * p + community, 100000 * p + ref};
        for (int k = 0; k < 3; ++k) {
          if (rng.Bernoulli(0.5)) {
            tuples.insert(1000 * p + 10 * community +
                          static_cast<int32_t>(rng.UniformInt(0, 7)));
          }
        }
        for (const int32_t t : tuples) {
          entries.push_back({t, rng.UniformDouble(), rng.UniformDouble()});
        }
      }
      profiles[r].emplace_back(std::move(entries));
    }
    profiles[r].emplace_back(std::vector<ProfileEntry>{
        {900000 + ref, rng.UniformDouble(), rng.UniformDouble()}});
  }
  return profiles;
}

/// Bit patterns, not values: a stray −0.0 would pass EXPECT_EQ.
void ExpectSameBits(const PairMatrix& a, const PairMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      EXPECT_EQ(std::bit_cast<uint64_t>(a.at(i, j)),
                std::bit_cast<uint64_t>(b.at(i, j)))
          << "cell (" << i << ", " << j << ")";
    }
  }
}

class UniversalPathFillTest : public ::testing::Test {
 protected:
  static constexpr size_t kRefs = 150;

  UniversalPathFillTest()
      : profiles_(UniversalPlusHubsProfiles(kRefs, /*seed=*/5)),
        store_(ProfileStore::FromProfiles(Refs(kRefs), profiles_)),
        // Mixed signs: negative weights turn every skipped path's +0.0
        // feature into a −0.0 term of the reference's sums.
        model_({0.5, 0.3, -0.2, 0.4, 0.1}, {-0.1, 0.6, 0.3, -0.3, 0.2}) {}

  std::vector<std::vector<NeighborProfile>> profiles_;
  ProfileStore store_;
  SimilarityModel model_;
};

TEST_F(UniversalPathFillTest, EveryPairIsACandidateButHubPathsAreSparse) {
  const CandidateSet candidates = CandidateSet::Build(store_);
  EXPECT_EQ(candidates.count(),
            static_cast<int64_t>(kRefs * (kRefs - 1) / 2));
  EXPECT_FALSE(candidates.has_path(4));
  ExpectPathBitsMatchBruteForce(candidates, profiles_);
}

TEST_F(UniversalPathFillTest, FusedFillIsBitwiseTheReference) {
  const auto expected = ReferencePairMatrices(profiles_, model_);
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const auto actual = ComputePairMatrices(store_, model_, &pool);
    ExpectSameBits(actual.first, expected.first);
    ExpectSameBits(actual.second, expected.second);
  }
}

TEST_F(UniversalPathFillTest, PathJoinsCountsOnlySharedPaths) {
  int64_t shared = 0;
  for (size_t i = 1; i < kRefs; ++i) {
    for (size_t j = 0; j < i; ++j) {
      for (size_t p = 0; p < profiles_[i].size(); ++p) {
        shared += ShareTupleOnPath(profiles_[i][p], profiles_[j][p]) ? 1 : 0;
      }
    }
  }
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  for (const int threads : {0, 4}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) {
      pool = std::make_unique<ThreadPool>(threads);
    }
    obs::MetricsRegistry::Global().Reset();
    ComputePairMatrices(store_, model_, pool.get());
    const obs::MetricsSnapshot metrics =
        obs::MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(metrics.CounterValue("sim.path_joins"), shared)
        << "threads=" << threads;
    EXPECT_EQ(metrics.CounterValue("sim.candidate_pairs"),
              static_cast<int64_t>(kRefs * (kRefs - 1) / 2));
  }
  obs::SetEnabled(was_enabled);
  // Most (pair, path) combinations share nothing: the universal path is
  // one join per pair, the hub paths a fraction of one each.
  EXPECT_LT(shared, static_cast<int64_t>(2 * kRefs * (kRefs - 1) / 2));
}

TEST_F(UniversalPathFillTest, UpdateEqualsFullCompute) {
  // The old catalog: the first 120 references, a tenth of them with other
  // profiles; the update re-profiles those and appends the rest.
  const size_t kOldRefs = 120;
  const auto other = UniversalPlusHubsProfiles(kRefs, /*seed=*/99);
  std::vector<std::vector<NeighborProfile>> old_profiles(
      profiles_.begin(), profiles_.begin() + kOldRefs);
  std::vector<char> dirty(kRefs, 0);
  for (size_t r = 0; r < kRefs; ++r) {
    if (r >= kOldRefs) {
      dirty[r] = 1;
    } else if (r % 10 == 3) {
      dirty[r] = 1;
      old_profiles[r] = other[r];
    }
  }
  const ProfileStore old_store =
      ProfileStore::FromProfiles(Refs(kOldRefs), std::move(old_profiles));
  const auto old = ComputePairMatrices(old_store, model_);
  const auto expected = ReferencePairMatrices(profiles_, model_);
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const auto updated = UpdatePairMatrices(store_, model_, dirty, old.first,
                                            old.second, &pool);
    const auto full = ComputePairMatrices(store_, model_, &pool);
    ExpectSameBits(updated.first, full.first);
    ExpectSameBits(updated.second, full.second);
    ExpectSameBits(full.first, expected.first);
    ExpectSameBits(full.second, expected.second);
  }
}

size_t LivePaths(const CandidateSet& candidates) {
  size_t live = 0;
  for (size_t p = 0; p < candidates.num_paths(); ++p) {
    live += candidates.has_path(p) ? 1 : 0;
  }
  return live;
}

TEST(FusedKernelMiniTest, MoreThan64LivePathsFallBackToEveryPath) {
  // Past 64 live paths a cell's path set no longer fits one word, so a
  // union candidate joins every path; the cells must not change, in the
  // full fill or in the masked refill. 150 references: three tile rows.
  Rng rng(64);
  const size_t kRefs = 150;
  const size_t kPaths = 70;
  const auto profiles = RandomProfiles(rng, kRefs, kPaths);
  std::vector<double> resem_weights(kPaths);
  std::vector<double> walk_weights(kPaths);
  for (size_t p = 0; p < kPaths; ++p) {
    resem_weights[p] = rng.UniformDouble() - 0.3;
    walk_weights[p] = rng.UniformDouble() - 0.3;
  }
  const SimilarityModel model(resem_weights, walk_weights);
  // The old catalog: the first 120 references, every fifth of them with
  // other profiles; the update re-profiles those and appends the rest.
  const size_t kOldRefs = 120;
  const auto other = RandomProfiles(rng, kOldRefs, kPaths);
  std::vector<std::vector<NeighborProfile>> old_profiles(
      profiles.begin(), profiles.begin() + kOldRefs);
  std::vector<char> dirty(kRefs, 0);
  for (size_t r = 0; r < kRefs; ++r) {
    if (r >= kOldRefs) {
      dirty[r] = 1;
    } else if (r % 5 == 2) {
      dirty[r] = 1;
      old_profiles[r] = other[r];
    }
  }
  const ProfileStore old_store =
      ProfileStore::FromProfiles(Refs(kOldRefs), std::move(old_profiles));
  const ProfileStore store = ProfileStore::FromProfiles(Refs(kRefs), profiles);
  ASSERT_GT(LivePaths(CandidateSet::Build(store)), 64u);
  ASSERT_GT(LivePaths(CandidateSet::Build(store, &dirty)), 64u);

  const auto expected = ReferencePairMatrices(profiles, model);
  ThreadPool pool(4);
  for (ThreadPool* workers : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const auto actual = ComputePairMatrices(store, model, workers);
    ExpectSameBits(actual.first, expected.first);
    ExpectSameBits(actual.second, expected.second);
  }

  const auto old = ComputePairMatrices(old_store, model);
  for (const int threads : {1, 4}) {
    ThreadPool workers(threads);
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const auto updated = UpdatePairMatrices(store, model, dirty, old.first,
                                            old.second, &workers);
    const auto full = ComputePairMatrices(store, model, &workers);
    ExpectSameBits(updated.first, full.first);
    ExpectSameBits(updated.second, full.second);
  }
}

TEST(FusedKernelMiniTest, EmptyAndSingletonStores) {
  Database db = testing_util::MakeMiniDblp();
  DistinctConfig config;
  config.supervised = false;
  auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());
  for (const std::vector<int32_t>& refs :
       {std::vector<int32_t>{}, std::vector<int32_t>{0}}) {
    const ProfileStore store = ProfileStore::Build(
        engine->propagation_engine(), engine->paths(),
        engine->config().propagation, refs, /*pool=*/nullptr);
    EXPECT_EQ(store.num_refs(), refs.size());
    const CandidateSet candidates = CandidateSet::Build(store);
    EXPECT_EQ(candidates.count(), 0);
    const auto matrices = ComputePairMatrices(store, engine->model());
    EXPECT_EQ(matrices.first.size(), refs.size());
  }
}

}  // namespace
}  // namespace distinct
