// Edge and differential tests for the merge-join (FusedMergeJoin in
// sim/fused_kernel.h): its features must match a naive hash-map reference
// over empty, singleton, fully-overlapping, duplicate-tuple, disjoint,
// skewed and random slice pairs, in both pair orders.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "sim/fused_kernel.h"
#include "sim/profile_store.h"

namespace distinct {
namespace {

// ---------------------------------------------------------------------------
// Naive reference: hash maps, no shared iteration order with the merge.
// ---------------------------------------------------------------------------

FusedPathFeatures NaiveFeatures(const NeighborProfile& a,
                                const NeighborProfile& b) {
  FusedPathFeatures features;
  if (a.empty() || b.empty()) {
    return features;
  }
  std::unordered_map<int32_t, const ProfileEntry*> index;
  for (const ProfileEntry& e : b.entries()) {
    index[e.tuple] = &e;
  }
  double numerator = 0.0;
  double denominator = 0.0;
  double ab = 0.0;
  double ba = 0.0;
  for (const ProfileEntry& e : a.entries()) {
    const auto it = index.find(e.tuple);
    if (it == index.end()) {
      denominator += e.forward;
      continue;
    }
    numerator += std::min(e.forward, it->second->forward);
    denominator += std::max(e.forward, it->second->forward);
    ab += e.forward * it->second->reverse;
    ba += it->second->forward * e.reverse;
  }
  std::unordered_map<int32_t, char> in_a;
  for (const ProfileEntry& e : a.entries()) {
    in_a[e.tuple] = 1;
  }
  for (const ProfileEntry& e : b.entries()) {
    if (in_a.find(e.tuple) == in_a.end()) {
      denominator += e.forward;
    }
  }
  if (denominator > 0.0) {
    features.resemblance = numerator / denominator;
  }
  features.walk = 0.5 * (ab + ba);
  return features;
}

/// Builds a one-path, two-reference store from two tuple lists; forwards
/// and reverses are deterministic functions of the tuple so any divergence
/// reproduces.
ProfileStore TwoSliceStore(const std::vector<int32_t>& a,
                           const std::vector<int32_t>& b,
                           std::vector<std::vector<NeighborProfile>>* raw) {
  auto entries_of = [](const std::vector<int32_t>& tuples) {
    std::vector<ProfileEntry> entries;
    entries.reserve(tuples.size());
    for (const int32_t t : tuples) {
      const double fwd = 0.05 + 0.9 * std::fmod(static_cast<double>(t) * 0.37,
                                                1.0);
      const double rev = 0.05 + 0.9 * std::fmod(static_cast<double>(t) * 0.71,
                                                1.0);
      entries.push_back(ProfileEntry{t, fwd, rev});
    }
    return entries;
  };
  raw->clear();
  raw->resize(2);
  (*raw)[0].emplace_back(entries_of(a));
  (*raw)[1].emplace_back(entries_of(b));
  return ProfileStore::FromProfiles({0, 1}, *raw);
}

/// The merge against the naive reference (EXPECT_NEAR — independent
/// computation), both pair orders.
void ExpectMergeMatchesNaive(const std::vector<int32_t>& a,
                             const std::vector<int32_t>& b) {
  std::vector<std::vector<NeighborProfile>> raw;
  const ProfileStore store = TwoSliceStore(a, b, &raw);
  const ProfileStore::Path& path = store.path(0);
  for (const auto& [i, j] : {std::pair<size_t, size_t>{1, 0},
                             std::pair<size_t, size_t>{0, 1}}) {
    const FusedPathFeatures merged = FusedMergeJoin(path, i, j);
    const FusedPathFeatures naive = NaiveFeatures(raw[i][0], raw[j][0]);
    EXPECT_NEAR(merged.resemblance, naive.resemblance, 1e-12);
    EXPECT_NEAR(merged.walk, naive.walk, 1e-12);
  }
}

std::vector<int32_t> Iota(int32_t begin, int32_t count, int32_t step = 1) {
  std::vector<int32_t> tuples;
  tuples.reserve(static_cast<size_t>(count));
  for (int32_t k = 0; k < count; ++k) {
    tuples.push_back(begin + k * step);
  }
  return tuples;
}

// ---------------------------------------------------------------------------
// Hand-built slice shapes.
// ---------------------------------------------------------------------------

TEST(IntersectEdgeTest, EmptyAndSingletonSlices) {
  ExpectMergeMatchesNaive({}, {});
  ExpectMergeMatchesNaive({}, {5});
  ExpectMergeMatchesNaive({3}, {});
  ExpectMergeMatchesNaive({7}, {7});    // singleton match
  ExpectMergeMatchesNaive({7}, {9});    // singleton mismatch
  ExpectMergeMatchesNaive({}, Iota(0, 100));
  ExpectMergeMatchesNaive({50}, Iota(0, 100));  // singleton inside a run
}

TEST(IntersectEdgeTest, FullyOverlappingAndDuplicateTupleSets) {
  // Identical tuple sets: union == intersection, every element matches.
  ExpectMergeMatchesNaive(Iota(0, 40), Iota(0, 40));
  ExpectMergeMatchesNaive(Iota(10, 7, 3), Iota(10, 7, 3));
  // One side duplicated inside the other: proper containment.
  ExpectMergeMatchesNaive(Iota(0, 100), Iota(0, 100, 5));
}

TEST(IntersectEdgeTest, DisjointRunsBothOrders) {
  // All of a below all of b, then interleaved blocks.
  ExpectMergeMatchesNaive(Iota(0, 30), Iota(100, 30));
  ExpectMergeMatchesNaive(Iota(0, 64, 2), Iota(1, 64, 2));  // perfect zipper
}

TEST(IntersectEdgeTest, BlockTailLengthsZeroThroughSixteen) {
  // Skewed pairs whose long side ends 0..16 tuples past a multiple of 8,
  // with the short side matching once inside the run and then running off
  // its end, or never matching at all.
  for (int32_t tail = 0; tail <= 16; ++tail) {
    const int32_t long_len = 32 + tail;
    std::vector<int32_t> long_side = Iota(0, long_len);
    // Short side: one match inside the run, one tuple past the end.
    ExpectMergeMatchesNaive(long_side, {long_len / 2, long_len + 8});
    // No match at all, the merge runs off the slice end.
    ExpectMergeMatchesNaive(long_side, {long_len + 1, long_len + 2});
  }
}

TEST(IntersectEdgeTest, ZeroForwardProbabilitiesKeepDenominatorGuard) {
  // All-zero forwards: denominator 0 -> resemblance exactly 0 per the
  // SetResemblance guard.
  std::vector<std::vector<NeighborProfile>> raw(2);
  raw[0].emplace_back(
      std::vector<ProfileEntry>{{1, 0.0, 0.4}, {2, 0.0, 0.6}});
  raw[1].emplace_back(
      std::vector<ProfileEntry>{{1, 0.0, 0.9}, {3, 0.0, 0.1}});
  const ProfileStore store = ProfileStore::FromProfiles({0, 1}, raw);
  const FusedPathFeatures features = FusedMergeJoin(store.path(0), 1, 0);
  EXPECT_EQ(features.resemblance, 0.0);
  // Both directed walks multiply by a forward probability, so they are
  // exactly 0 too — no NaN/Inf leaks from the 0/0 resemblance case.
  EXPECT_EQ(features.walk, 0.0);
}

// ---------------------------------------------------------------------------
// Randomized differential sweep.
// ---------------------------------------------------------------------------

class IntersectDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(IntersectDifferentialTest, RandomSlicesAllLengthMixes) {
  Rng rng(GetParam());
  // Length classes from empty through balanced to 200:1 skew, in both
  // directions.
  const int kLengths[] = {0, 1, 2, 7, 8, 9, 16, 40, 200};
  for (const int len_a : kLengths) {
    for (const int len_b : kLengths) {
      std::vector<int32_t> a;
      std::vector<int32_t> b;
      int32_t t = 0;
      for (int k = 0; k < len_a; ++k) {
        t += 1 + static_cast<int32_t>(rng.UniformInt(0, 4));
        a.push_back(t);
      }
      t = 0;
      for (int k = 0; k < len_b; ++k) {
        t += 1 + static_cast<int32_t>(rng.UniformInt(0, 4));
        b.push_back(t);
      }
      ExpectMergeMatchesNaive(a, b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntersectDifferentialTest,
                         ::testing::Values(17, 99, 2024));

}  // namespace
}  // namespace distinct
