#include "core/scan.h"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>

#include "../test_util.h"
#include "common/cancel.h"
#include "common/thread_pool.h"
#include "dblp/generator.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace distinct {
namespace {

/// An unsupervised engine over the mini DBLP database, whose name index
/// every ScanNameGroups call below filters.
Distinct MiniEngine(const Database& db) {
  DistinctConfig config;
  config.supervised = false;
  auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
  DISTINCT_CHECK(engine.ok());
  return *std::move(engine);
}

TEST(ScanTest, GroupsReferencesByName) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  auto groups = ScanNameGroups(engine);
  ASSERT_TRUE(groups.ok());
  // Wei Wang: 3 refs, Jiong Yang: 2 refs; others below min_refs=2.
  ASSERT_EQ(groups->size(), 2u);
  EXPECT_EQ((*groups)[0].name, "Wei Wang");
  EXPECT_EQ((*groups)[0].refs, (std::vector<int32_t>{0, 2, 6}));
  EXPECT_EQ((*groups)[1].name, "Jiong Yang");
  EXPECT_EQ((*groups)[1].refs.size(), 2u);
}

TEST(ScanTest, MinRefsFilter) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  ScanOptions options;
  options.min_refs = 1;
  auto groups = ScanNameGroups(engine, options);
  ASSERT_TRUE(groups.ok());
  // Everyone in Publish: Wei Wang, Jiong Yang, Jian Pei, Haixun Wang.
  EXPECT_EQ(groups->size(), 4u);
  options.min_refs = 3;
  groups = ScanNameGroups(engine, options);
  EXPECT_EQ(groups->size(), 1u);
}

TEST(ScanTest, MaxRefsCap) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  ScanOptions options;
  options.min_refs = 1;
  options.max_refs = 2;
  auto groups = ScanNameGroups(engine, options);
  ASSERT_TRUE(groups.ok());
  for (const NameGroup& group : *groups) {
    EXPECT_LE(group.refs.size(), 2u);
    EXPECT_NE(group.name, "Wei Wang");
  }
}

/// Regression: the filters compare in int64. A min/max-refs beyond INT_MAX
/// used to be narrowed (a group size cast to int), so a bound like 2^33
/// could wrap and admit or reject the wrong groups.
TEST(ScanTest, FiltersCompareBeyondInt32) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  ScanOptions options;
  options.min_refs = int64_t{1} << 33;  // no group is this large
  auto groups = ScanNameGroups(engine, options);
  ASSERT_TRUE(groups.ok());
  EXPECT_TRUE(groups->empty());

  options.min_refs = 1;
  options.max_refs = int64_t{1} << 33;  // cap far above every group
  groups = ScanNameGroups(engine, options);
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(groups->size(), 4u);
}

TEST(ScanTest, OrderedByDescendingRefCount) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  ScanOptions options;
  options.min_refs = 1;
  auto groups = ScanNameGroups(engine, options);
  ASSERT_TRUE(groups.ok());
  for (size_t i = 1; i < groups->size(); ++i) {
    EXPECT_GE((*groups)[i - 1].refs.size(), (*groups)[i].refs.size());
  }
}

/// The slabs a scan's workspaces allocate count toward the memory
/// the tracker measures, so run reports show them and admission sees the
/// workspaces that exist when it measures.
TEST(ScanTest, RunReportCountsWorkspaceBytes) {
  const bool was_enabled = obs::Enabled();
  Database db = testing_util::MakeMiniDblp();
  DistinctConfig config;
  config.supervised = false;
  config.observability = true;
  obs::MemoryTracker::Global().Reset();
  auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());
  auto groups = ScanNameGroups(*engine);
  ASSERT_TRUE(groups.ok());
  ASSERT_TRUE(ResolveAllNamesParallel(*engine, *groups, 2).ok());
  const obs::RunReport report = obs::CollectRunReport("scan");
  obs::SetEnabled(was_enabled);

  int64_t current = -1;
  int64_t peak = -1;
  for (const obs::MemoryTracker::ComponentSnapshot& component :
       report.memory) {
    if (component.name == "propagation_workspace") {
      current = component.current_bytes;
      peak = component.peak_bytes;
    }
  }
  EXPECT_GT(peak, 0);
  EXPECT_EQ(current, 0);  // the scan's workspaces went with the scan
}

/// The untraced resolver that the scan's group loop and the server share
/// returns the traced single-name path's clustering, merge for merge and
/// bit for bit, on a serial and a parallel pool, with the memo's storage
/// off and on. The largest group is big enough to fan its propagations
/// and pair tiles out over the pool.
TEST(ScanTest, ResolveGroupMatchesResolveRefs) {
  GeneratorConfig generator;
  generator.seed = 5;
  generator.num_communities = 6;
  generator.authors_per_community = 10;
  generator.ambiguous = {{"Wei Wang", 4, 80}, {"Jing Li", 2, 12}};
  auto dataset = GenerateDblpDataset(generator);
  ASSERT_TRUE(dataset.ok());
  DistinctConfig config;
  config.supervised = false;
  config.promotions = DblpDefaultPromotions();
  auto engine = Distinct::Create(dataset->db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());
  auto groups = ScanNameGroups(*engine);
  ASSERT_TRUE(groups.ok());
  ASSERT_GT(groups->size(), 2u);
  ASSERT_GE(groups->front().refs.size(), 64u);

  std::vector<ClusteringResult> want;
  for (const NameGroup& group : *groups) {
    auto clustering = engine->ResolveRefs(group.refs);
    ASSERT_TRUE(clustering.ok());
    want.push_back(*std::move(clustering));
  }
  for (const int threads : {1, 4}) {
    for (const size_t memo_bytes : {size_t{0}, size_t{64} << 20}) {
      SCOPED_TRACE(::testing::Message() << threads << " threads, memo of "
                                        << memo_bytes << " bytes");
      ThreadPool pool(threads);
      SubtreeCache memo(memo_bytes);
      WorkspacePool workspaces(engine->propagation_engine().link());
      for (size_t g = 0; g < groups->size(); ++g) {
        const NameGroup& group = (*groups)[g];
        auto got = ResolveGroup(*engine, group.refs, &pool, &memo,
                                &workspaces, /*cancel=*/nullptr);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const ClusteringResult& clustering = got->clustering;
        EXPECT_EQ(clustering.assignment, want[g].assignment) << group.name;
        ASSERT_EQ(clustering.merges.size(), want[g].merges.size())
            << group.name;
        for (size_t m = 0; m < clustering.merges.size(); ++m) {
          EXPECT_EQ(clustering.merges[m].into, want[g].merges[m].into);
          EXPECT_EQ(clustering.merges[m].from, want[g].merges[m].from);
          EXPECT_EQ(std::bit_cast<uint64_t>(clustering.merges[m].similarity),
                    std::bit_cast<uint64_t>(want[g].merges[m].similarity))
              << group.name << " merge " << m;
        }
      }
    }
  }
}

/// A token that has fired stops the fill and comes back as
/// DeadlineExceeded; without a token the same call clusters.
TEST(ScanTest, ResolveGroupReportsAFiredToken) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  const std::vector<int32_t> refs = {0, 2, 6};  // Wei Wang
  ThreadPool pool(2);
  const CancelToken fired(std::chrono::steady_clock::time_point::min());
  auto late = ResolveGroup(engine, refs, &pool, engine.memo(),
                           engine.workspaces(), &fired);
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded)
      << late.status().ToString();

  auto unbounded = ResolveGroup(engine, refs, &pool, engine.memo(),
                                engine.workspaces(), /*cancel=*/nullptr);
  ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
  auto want = engine.ResolveRefs(refs);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(unbounded->clustering, *want);
}

/// The single-name path, one group after another: the oracle every batch
/// resolution must match exactly.
std::vector<BulkResolution> ResolveEachGroup(
    Distinct& engine, const std::vector<NameGroup>& groups,
    BulkStats* stats) {
  std::vector<BulkResolution> results;
  for (const NameGroup& group : groups) {
    auto clustering = engine.ResolveRefs(group.refs);
    DISTINCT_CHECK(clustering.ok());
    results.push_back(
        BulkResolution{group.name, group.refs.size(), *std::move(clustering)});
    stats->Add(results.back());
  }
  return results;
}

class ResolveAllTest : public ::testing::Test {
 protected:
  ResolveAllTest() : db_(testing_util::MakeMiniDblp()) {
    DistinctConfig config;
    config.supervised = false;
    config.min_sim = 1e-3;
    auto engine = Distinct::Create(db_, DblpReferenceSpec(), config);
    DISTINCT_CHECK(engine.ok());
    engine_ = std::make_unique<Distinct>(*std::move(engine));
  }

  Database db_;
  std::unique_ptr<Distinct> engine_;
};

TEST_F(ResolveAllTest, ResolvesEveryGroup) {
  auto groups = ScanNameGroups(*engine_);
  ASSERT_TRUE(groups.ok());
  std::vector<BulkResolution> results;
  auto stats = ResolveAllNamesParallel(*engine_, *groups, 2, &results);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->names_resolved, 2);
  EXPECT_EQ(stats->total_refs, 5);
  EXPECT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "Wei Wang");
  // Wei Wang splits (refs 0,2 vs 6); total clusters across names >= 3.
  EXPECT_GE(stats->total_clusters, 3);
  EXPECT_GE(stats->names_split, 1);
  EXPECT_GE(stats->seconds, 0.0);
}

TEST_F(ResolveAllTest, EmptyGroupListIsFine) {
  auto stats = ResolveAllNamesParallel(*engine_, {}, 2);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->names_resolved, 0);
}

// A reference outside the Publish table is rejected before any group is
// resolved, instead of indexing past the link graph inside a worker.
TEST_F(ResolveAllTest, OutOfRangeReferenceIsInvalidArgument) {
  const int32_t num_refs =
      static_cast<int32_t>((**db_.FindTable(kPublishTable)).num_rows());
  for (const int32_t bad : {num_refs, -1}) {
    const std::vector<NameGroup> groups = {{"Wei Wang", {0, 2, 6}},
                                           {"Ghost", {0, bad}}};
    std::vector<BulkResolution> results;
    auto stats = ResolveAllNamesParallel(*engine_, groups, 2, &results);
    EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_TRUE(results.empty());
  }
}

TEST_F(ResolveAllTest, ParallelMatchesSequential) {
  ScanOptions options;
  options.min_refs = 1;
  auto groups = ScanNameGroups(*engine_, options);
  ASSERT_TRUE(groups.ok());

  BulkStats seq_stats;
  const std::vector<BulkResolution> sequential =
      ResolveEachGroup(*engine_, *groups, &seq_stats);

  for (const int threads : {1, 2, 4}) {
    std::vector<BulkResolution> parallel;
    auto par_stats =
        ResolveAllNamesParallel(*engine_, *groups, threads, &parallel);
    ASSERT_TRUE(par_stats.ok());
    EXPECT_EQ(par_stats->names_resolved, seq_stats.names_resolved);
    EXPECT_EQ(par_stats->total_clusters, seq_stats.total_clusters);
    EXPECT_EQ(par_stats->names_split, seq_stats.names_split);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (size_t g = 0; g < parallel.size(); ++g) {
      EXPECT_EQ(parallel[g].name, sequential[g].name);
      EXPECT_EQ(parallel[g].clustering.assignment,
                sequential[g].clustering.assignment)
          << parallel[g].name;
    }
  }
}

// One mega-name (n >= 200 refs) among many small groups: the load pattern
// the nested groups x tiles parallelism exists for. The parallel resolver
// must match the single-name path exactly at every thread count.
TEST(ResolveAllMegaGroupTest, ParallelMatchesSequentialWithMegaGroup) {
  GeneratorConfig generator;
  generator.seed = 11;
  generator.num_communities = 10;
  generator.authors_per_community = 12;
  generator.ambiguous = {{"Wei Wang", 6, 220}, {"Jing Li", 2, 12},
                         {"Hao Chen", 2, 10}};
  auto dataset = GenerateDblpDataset(generator);
  ASSERT_TRUE(dataset.ok());

  DistinctConfig config;
  config.supervised = false;
  config.promotions = DblpDefaultPromotions();
  auto engine = Distinct::Create(dataset->db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());

  ScanOptions options;
  options.min_refs = 2;
  options.max_refs = 100000;
  auto groups = ScanNameGroups(*engine, options);
  ASSERT_TRUE(groups.ok());
  ASSERT_FALSE(groups->empty());
  // Sorted by descending size: the mega-group leads, small groups follow.
  EXPECT_EQ((*groups)[0].name, "Wei Wang");
  EXPECT_GE((*groups)[0].refs.size(), 200u);
  EXPECT_GT(groups->size(), 4u);

  BulkStats seq_stats;
  const std::vector<BulkResolution> sequential =
      ResolveEachGroup(*engine, *groups, &seq_stats);

  for (const int threads : {2, 4, 8}) {
    std::vector<BulkResolution> parallel;
    auto par_stats =
        ResolveAllNamesParallel(*engine, *groups, threads, &parallel);
    ASSERT_TRUE(par_stats.ok());
    EXPECT_EQ(par_stats->names_resolved, seq_stats.names_resolved);
    EXPECT_EQ(par_stats->total_clusters, seq_stats.total_clusters);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (size_t g = 0; g < parallel.size(); ++g) {
      EXPECT_EQ(parallel[g].name, sequential[g].name);
      EXPECT_EQ(parallel[g].num_refs, sequential[g].num_refs);
      EXPECT_EQ(parallel[g].clustering.assignment,
                sequential[g].clustering.assignment)
          << parallel[g].name << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace distinct
