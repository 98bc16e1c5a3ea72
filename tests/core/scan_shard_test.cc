#include "core/scan_shard.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "dblp/generator.h"
#include "dblp/schema.h"
#include "obs/memory.h"
#include "obs/metrics.h"

namespace distinct {
namespace {

namespace fs = std::filesystem;

NameGroup MakeGroup(const std::string& name, size_t num_refs) {
  NameGroup group;
  group.name = name;
  for (size_t r = 0; r < num_refs; ++r) {
    group.refs.push_back(static_cast<int32_t>(r));
  }
  return group;
}

TEST(PlanShardsTest, BalancesByEstimatedPairsNotGroupCount) {
  // Sizes 10, 8, 5, 3, 2, 2 -> pairs 45, 28, 10, 3, 1, 1. LPT onto two
  // shards: the 45-pair group takes shard 0 and every later group lands on
  // shard 1, which stays lighter throughout (28+10+3+1+1 = 43 < 45). A
  // count-balanced planner would have split 3/3 instead.
  std::vector<NameGroup> groups = {
      MakeGroup("a", 10), MakeGroup("b", 8), MakeGroup("c", 5),
      MakeGroup("d", 3),  MakeGroup("e", 2), MakeGroup("f", 2),
  };
  const ShardPlan plan = PlanShards(groups, 2);
  ASSERT_EQ(plan.num_shards(), 2);
  EXPECT_EQ(plan.shards[0], (std::vector<size_t>{0}));
  EXPECT_EQ(plan.shards[1], (std::vector<size_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(plan.estimated_pairs[0], 45);
  EXPECT_EQ(plan.estimated_pairs[1], 43);
}

TEST(PlanShardsTest, DeterministicAndCoversEveryGroupOnce) {
  std::vector<NameGroup> groups;
  for (size_t g = 0; g < 37; ++g) {
    groups.push_back(MakeGroup("n" + std::to_string(g), 2 + (g * 7) % 23));
  }
  for (const int num_shards : {1, 2, 7, 50}) {
    const ShardPlan plan = PlanShards(groups, num_shards);
    ASSERT_EQ(plan.num_shards(), num_shards);
    std::set<size_t> seen;
    for (const auto& shard : plan.shards) {
      for (size_t i = 1; i < shard.size(); ++i) {
        EXPECT_LT(shard[i - 1], shard[i]);  // ascending within a shard
      }
      for (const size_t g : shard) {
        EXPECT_TRUE(seen.insert(g).second) << "group planned twice";
      }
    }
    EXPECT_EQ(seen.size(), groups.size());
    // Pure function: replanning yields the identical plan (what resume
    // depends on).
    const ShardPlan again = PlanShards(groups, num_shards);
    EXPECT_EQ(again.shards, plan.shards);
    EXPECT_EQ(again.estimated_pairs, plan.estimated_pairs);
  }
}

TEST(PlanShardsTest, ZeroOrNegativeShardCountClampsToOne) {
  std::vector<NameGroup> groups = {MakeGroup("a", 3)};
  EXPECT_EQ(PlanShards(groups, 0).num_shards(), 1);
  EXPECT_EQ(PlanShards(groups, -4).num_shards(), 1);
}

/// Engine + filtered groups over a generated DBLP world with one planted
/// ambiguous name; built once for the whole suite (training is disabled, so
/// construction is propagation-only, but still worth sharing).
class ShardedScanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorConfig generator;
    generator.seed = 11;
    generator.num_communities = 8;
    generator.authors_per_community = 10;
    generator.ambiguous = {{"Wei Wang", 3, 40}, {"Jing Li", 2, 12}};
    auto dataset = GenerateDblpDataset(generator);
    DISTINCT_CHECK(dataset.ok());
    dataset_ = new DblpDataset(*std::move(dataset));

    DistinctConfig config;
    config.supervised = false;
    config.promotions = DblpDefaultPromotions();
    config.min_sim = 1e-3;
    auto engine = Distinct::Create(dataset_->db, DblpReferenceSpec(), config);
    DISTINCT_CHECK(engine.ok());
    engine_ = new Distinct(*std::move(engine));

    ScanOptions options;
    options.min_refs = 2;
    auto groups = ScanNameGroups(*engine_, options);
    DISTINCT_CHECK(groups.ok());
    DISTINCT_CHECK(groups->size() > 4);
    groups_ = new std::vector<NameGroup>(*std::move(groups));

    baseline_ = new std::vector<BulkResolution>();
    auto stats = ResolveAllNamesParallel(*engine_, *groups_, 2, baseline_);
    DISTINCT_CHECK(stats.ok());
  }

  static void TearDownTestSuite() {
    delete baseline_;
    delete groups_;
    delete engine_;
    delete dataset_;
    baseline_ = nullptr;
    groups_ = nullptr;
    engine_ = nullptr;
    dataset_ = nullptr;
  }

  static std::string MakeCheckpointDir(const std::string& name) {
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
  }

  /// Asserts `results` is byte-for-byte the unsharded baseline: same order,
  /// names, sizes, assignments, and bit-identical merge similarities.
  static void ExpectMatchesBaseline(
      const std::vector<BulkResolution>& results) {
    ASSERT_EQ(results.size(), baseline_->size());
    for (size_t g = 0; g < results.size(); ++g) {
      const BulkResolution& want = (*baseline_)[g];
      const BulkResolution& got = results[g];
      ASSERT_EQ(got.name, want.name) << "group order differs at " << g;
      EXPECT_EQ(got.num_refs, want.num_refs);
      EXPECT_EQ(got.clustering.assignment, want.clustering.assignment)
          << got.name;
      EXPECT_EQ(got.clustering.num_clusters, want.clustering.num_clusters);
      ASSERT_EQ(got.clustering.merges.size(), want.clustering.merges.size())
          << got.name;
      for (size_t m = 0; m < want.clustering.merges.size(); ++m) {
        EXPECT_EQ(got.clustering.merges[m].into,
                  want.clustering.merges[m].into);
        EXPECT_EQ(got.clustering.merges[m].from,
                  want.clustering.merges[m].from);
        EXPECT_EQ(got.clustering.merges[m].similarity,
                  want.clustering.merges[m].similarity)
            << got.name << " merge " << m;
      }
    }
  }

  static DblpDataset* dataset_;
  static Distinct* engine_;
  static std::vector<NameGroup>* groups_;
  static std::vector<BulkResolution>* baseline_;
};

DblpDataset* ShardedScanTest::dataset_ = nullptr;
Distinct* ShardedScanTest::engine_ = nullptr;
std::vector<NameGroup>* ShardedScanTest::groups_ = nullptr;
std::vector<BulkResolution>* ShardedScanTest::baseline_ = nullptr;

// The acceptance bar: sharded output is byte-identical to the unsharded
// scan at shard counts 1, 2, and 7.
TEST_F(ShardedScanTest, ByteIdenticalAtEveryShardCount) {
  for (const int num_shards : {1, 2, 7}) {
    ShardedScanOptions options;
    options.num_shards = num_shards;
    options.num_threads = 2;
    auto result = RunShardedScan(*engine_, *groups_, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->shards.size(), static_cast<size_t>(num_shards));
    for (const ShardOutcome& shard : result->shards) {
      EXPECT_EQ(shard.state, ShardState::kCompleted);
      EXPECT_TRUE(shard.error.empty());
    }
    ExpectMatchesBaseline(result->results);
    EXPECT_EQ(result->stats.names_resolved,
              static_cast<int64_t>(groups_->size()));
  }
}

TEST_F(ShardedScanTest, MemoryBudgetCapsThreadsWithoutChangingResults) {
  ShardedScanOptions options;
  options.num_shards = 3;
  options.num_threads = 8;
  options.memory_budget_mb = 1;  // enough for the data, not for 8 workers
  auto result = RunShardedScan(*engine_, *groups_, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const ShardOutcome& shard : result->shards) {
    ASSERT_EQ(shard.state, ShardState::kCompleted) << shard.error;
    EXPECT_GE(shard.threads_used, 1);
    EXPECT_LE(shard.threads_used, 8);
  }
  ExpectMatchesBaseline(result->results);
}

// One memo serves the whole scan: on one thread every (path, hub) key
// misses exactly once, the first time any shard looks it up, so the miss
// count cannot depend on how the groups are sharded. Per-shard memos
// would re-miss every hub that several shards reach.
TEST_F(ShardedScanTest, MemoMissesDoNotDependOnShardCount) {
  std::vector<int64_t> misses;
  for (const int num_shards : {1, 2, 7}) {
    ShardedScanOptions options;
    options.num_shards = num_shards;
    options.num_threads = 1;
    obs::SetEnabled(true);
    obs::MetricsRegistry::Global().Reset();
    auto result = RunShardedScan(*engine_, *groups_, options);
    const auto metrics = obs::MetricsRegistry::Global().Snapshot();
    obs::SetEnabled(false);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectMatchesBaseline(result->results);
    EXPECT_EQ(metrics.CounterValue("prop.memo_evictions"), 0);
    misses.push_back(metrics.CounterValue("prop.memo_misses"));
  }
  EXPECT_GT(misses[0], 0);
  EXPECT_EQ(misses[1], misses[0]) << "2 shards";
  EXPECT_EQ(misses[2], misses[0]) << "7 shards";
}

// Admission counts the bytes that stood when the scan began, not the memo
// earlier shards filled: a group admitted by a one-shard scan is admitted
// at every shard position of a seven-shard scan under the same budget,
// although the budget is too tight to hold the group and the shared memo.
TEST_F(ShardedScanTest, AdmissionDoesNotDependOnShardPosition) {
  constexpr int64_t kBudgetMb = 1;
  constexpr int64_t kBudgetBytes = kBudgetMb << 20;
  // Six real groups, then the largest probe group the budget admits on
  // top of the standing bytes.
  std::vector<NameGroup> others(groups_->begin(), groups_->begin() + 6);
  const int64_t standing = obs::MemoryTracker::Global().TrackedTotalBytes();
  int64_t n = 2;
  while (standing + EstimatedGroupMatrixBytes(n + 1) <= kBudgetBytes) {
    ++n;
  }
  const NameGroup probe = MakeGroup("Budget Probe", static_cast<size_t>(n));

  // The budget is tight: the memo the other six groups leave behind does
  // not fit beside the probe's matrices.
  {
    GroupLoopBudget budget;
    budget.cache_bytes = kBudgetBytes / 4;  // what the scan budget affords
    budget.budget_bytes = kBudgetBytes;
    ScanState state(*engine_, budget);
    std::vector<size_t> indices(others.size());
    std::iota(indices.begin(), indices.end(), size_t{0});
    std::vector<BulkResolution> out;
    ASSERT_TRUE(
        ResolveGroups(*engine_, others, indices, state, nullptr, &out).ok());
    ASSERT_NE(state.memo(), nullptr);
    EXPECT_GT(standing + state.memo()->stats().bytes +
                  EstimatedGroupMatrixBytes(n),
              kBudgetBytes);
  }

  ShardedScanOptions options;
  options.num_threads = 1;
  options.memory_budget_mb = kBudgetMb;
  std::vector<NameGroup> groups = others;
  groups.insert(groups.begin(), probe);
  auto whole = RunShardedScan(*engine_, groups, options);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  ASSERT_EQ(whole->shards.size(), 1u);
  ASSERT_EQ(whole->shards[0].state, ShardState::kCompleted)
      << whole->shards[0].error;
  const BulkResolution& want = whole->results[0];
  ASSERT_EQ(want.name, probe.name);

  options.num_shards = 7;
  for (size_t position = 0; position < 7; ++position) {
    SCOPED_TRACE(::testing::Message() << "probe in shard " << position);
    // Seven groups over seven shards: the i-th group lands in shard i.
    groups = others;
    groups.insert(groups.begin() + static_cast<ptrdiff_t>(position), probe);
    auto sharded = RunShardedScan(*engine_, groups, options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ASSERT_EQ(sharded->shards.size(), 7u);
    ASSERT_EQ(sharded->shards[position].num_groups, 1);
    for (const ShardOutcome& shard : sharded->shards) {
      EXPECT_EQ(shard.state, ShardState::kCompleted) << shard.error;
    }
    ASSERT_EQ(sharded->results.size(), groups.size());
    const BulkResolution& got = sharded->results[position];
    ASSERT_EQ(got.name, probe.name);
    EXPECT_EQ(got.clustering.assignment, want.clustering.assignment);
  }
}

// Graceful degradation: a group with an out-of-range reference fails its
// shard; the other shards complete and the merged results simply omit the
// failed shard's groups.
TEST_F(ShardedScanTest, BadGroupFailsItsShardOnly) {
  std::vector<NameGroup> groups = *groups_;
  NameGroup bogus;
  bogus.name = "Bogus Ref";
  bogus.refs = {0, 1 << 30};
  groups.push_back(std::move(bogus));

  ShardedScanOptions options;
  options.num_shards = 4;
  auto result = RunShardedScan(*engine_, groups, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  int failed = 0;
  for (const ShardOutcome& shard : result->shards) {
    if (shard.state == ShardState::kFailed) {
      ++failed;
      EXPECT_NE(shard.error.find("Bogus Ref"), std::string::npos)
          << shard.error;
    }
  }
  EXPECT_EQ(failed, 1);
  // Every resolved group is genuine and none comes from the failed shard.
  EXPECT_LT(result->results.size(), groups.size());
  for (const BulkResolution& resolution : result->results) {
    EXPECT_NE(resolution.name, "Bogus Ref");
  }
}

TEST_F(ShardedScanTest, ResumeRequiresCheckpointDir) {
  ShardedScanOptions options;
  options.resume = true;
  auto result = RunShardedScan(*engine_, *groups_, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// The resume acceptance bar: kill mid-shard (one shard's checkpoint torn,
// marker gone), resume, and the completed run is byte-identical while the
// surviving shards were loaded, not recomputed.
TEST_F(ShardedScanTest, ResumeAfterMidShardKillIsByteIdentical) {
  const std::string dir = MakeCheckpointDir("shard_resume");
  ShardedScanOptions options;
  options.num_shards = 3;
  options.num_threads = 2;
  options.checkpoint_dir = dir;

  auto first = RunShardedScan(*engine_, *groups_, options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ExpectMatchesBaseline(first->results);
  for (int s = 0; s < 3; ++s) {
    EXPECT_TRUE(ShardCheckpointComplete(dir, s));
  }

  // Simulate a kill while shard 1 was being written: torn data file, no
  // marker.
  ASSERT_TRUE(fs::remove(ShardMarkerPath(dir, 1)));
  {
    std::ifstream in(ShardCheckpointPath(dir, 1), std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::ofstream out(ShardCheckpointPath(dir, 1),
                      std::ios::binary | std::ios::trunc);
    out << data.substr(0, data.size() / 3);
  }

  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().Reset();
  options.resume = true;
  auto resumed = RunShardedScan(*engine_, *groups_, options);
  const auto metrics = obs::MetricsRegistry::Global().Snapshot();
  obs::SetEnabled(false);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  ExpectMatchesBaseline(resumed->results);
  int resumed_count = 0;
  int completed_count = 0;
  for (const ShardOutcome& shard : resumed->shards) {
    if (shard.state == ShardState::kResumed) ++resumed_count;
    if (shard.state == ShardState::kCompleted) ++completed_count;
  }
  EXPECT_EQ(resumed_count, 2);   // shards 0 and 2 loaded from disk
  EXPECT_EQ(completed_count, 1);  // shard 1 re-resolved
  EXPECT_EQ(metrics.CounterValue("scan.shards_resumed"), 2);
  EXPECT_EQ(metrics.CounterValue("scan.shards_completed"), 1);
  // The re-run rewrote shard 1's checkpoint, marker included.
  EXPECT_TRUE(ShardCheckpointComplete(dir, 1));
}

// A checkpoint that is complete but corrupt must fail the resume with a
// clean error, never silently recompute.
TEST_F(ShardedScanTest, ResumeWithCorruptCompleteCheckpointFails) {
  const std::string dir = MakeCheckpointDir("shard_corrupt");
  ShardedScanOptions options;
  options.num_shards = 2;
  options.checkpoint_dir = dir;
  ASSERT_TRUE(RunShardedScan(*engine_, *groups_, options).ok());

  std::ofstream(ShardCheckpointPath(dir, 0),
                std::ios::binary | std::ios::trunc)
      << "{ garbage";
  options.resume = true;
  auto result = RunShardedScan(*engine_, *groups_, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

// Resuming under a different shard count must be rejected: the checkpoints
// bind to the plan that wrote them.
TEST_F(ShardedScanTest, ResumeWithDifferentPlanFails) {
  const std::string dir = MakeCheckpointDir("shard_replan");
  ShardedScanOptions options;
  options.num_shards = 3;
  options.checkpoint_dir = dir;
  ASSERT_TRUE(RunShardedScan(*engine_, *groups_, options).ok());

  options.num_shards = 2;
  options.resume = true;
  auto result = RunShardedScan(*engine_, *groups_, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ShardedScanTest, InvalidShardCountIsRejected) {
  ShardedScanOptions options;
  options.num_shards = 0;
  auto result = RunShardedScan(*engine_, *groups_, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace distinct
