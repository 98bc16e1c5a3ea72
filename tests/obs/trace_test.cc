#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../test_util.h"
#include "core/delta.h"
#include "core/distinct.h"
#include "core/scan.h"
#include "dblp/schema.h"
#include "obs/metrics.h"

namespace distinct {
namespace obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = Enabled();
    SetEnabled(true);
    Tracer::Global().Reset();
  }
  void TearDown() override { SetEnabled(was_enabled_); }

 private:
  bool was_enabled_ = false;
};

/// Structure of a span tree with timings stripped: one "name(parent,thread)"
/// token per span in creation order.
std::vector<std::string> Structure(const std::vector<SpanRecord>& spans) {
  std::vector<std::string> tokens;
  tokens.reserve(spans.size());
  for (const SpanRecord& span : spans) {
    tokens.push_back(span.name + "(" + std::to_string(span.parent) + "," +
                     std::to_string(span.thread) + ")");
  }
  return tokens;
}

TEST_F(TraceTest, NestedSpansRecordParentAndDuration) {
  {
    DISTINCT_TRACE_SPAN("outer");
    { DISTINCT_TRACE_SPAN("inner"); }
    { DISTINCT_TRACE_SPAN("sibling"); }
  }
  const std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[2].parent, 0);
  for (const SpanRecord& span : spans) {
    EXPECT_GE(span.duration_nanos, 0) << span.name;
    EXPECT_GE(span.start_nanos, 0) << span.name;
    EXPECT_EQ(span.thread, 0) << span.name;
  }
  // Children are contained in the parent's window.
  EXPECT_LE(spans[0].start_nanos, spans[1].start_nanos);
  EXPECT_LE(spans[1].start_nanos + spans[1].duration_nanos,
            spans[0].start_nanos + spans[0].duration_nanos);
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  SetEnabled(false);
  { DISTINCT_TRACE_SPAN("invisible"); }
  SetEnabled(true);
  EXPECT_TRUE(Tracer::Global().Snapshot().empty());
}

TEST_F(TraceTest, ResetDropsSpansOpenAcrossIt) {
  {
    DISTINCT_TRACE_SPAN("doomed");
    Tracer::Global().Reset();
    // The close after Reset must not touch the new run's span list.
  }
  { DISTINCT_TRACE_SPAN("fresh"); }
  const std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "fresh");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_GE(spans[0].duration_nanos, 0);
}

/// Spans mark stage boundaries on the calling thread only, so the tree for
/// a fixed workload is identical whatever the engine's thread count — the
/// property that makes span-structure assertions safe in CI and run reports
/// diffable across machines.
TEST_F(TraceTest, SpanTreeDeterministicAcrossEngineThreadCounts) {
  const Database db = testing_util::MakeMiniDblp();
  std::vector<std::string> baseline;
  for (const int threads : {1, 2, 8}) {
    Tracer::Global().Reset();

    DistinctConfig config;
    config.supervised = false;  // mini world: unsupervised uniform weights
    config.num_threads = threads;
    auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    ScanOptions scan;
    scan.min_refs = 2;
    auto groups = ScanNameGroups(*engine, scan);
    ASSERT_TRUE(groups.ok());
    for (const NameGroup& group : *groups) {
      ASSERT_TRUE(engine->ResolveRefs(group.refs).ok());
    }

    const std::vector<std::string> structure =
        Structure(Tracer::Global().Snapshot());
    EXPECT_FALSE(structure.empty());
    if (baseline.empty()) {
      baseline = structure;
    } else {
      EXPECT_EQ(structure, baseline) << "threads=" << threads;
    }
  }
}

/// The three stage spans of one traced resolution, as roots on the calling
/// thread.
const std::vector<std::string> kStageSpans = {
    "profile_store(-1,0)", "pair_matrix(-1,0)", "cluster(-1,0)"};

// The span list of each traced resolve entry point, pinned exactly: run
// reports and bench_e2e's layer split read these names. The untraced
// resolver opens none, so it may run on pool workers.
TEST_F(TraceTest, ResolveEntryPointsOpenExactlyTheStageSpans) {
  Database db = testing_util::MakeMiniDblp();
  DistinctConfig config;
  config.supervised = false;
  config.num_threads = 2;
  auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::vector<int32_t> refs = {testing_util::kWeiWangRef0,
                                     testing_util::kWeiWangRef1,
                                     testing_util::kWeiWangRef2};

  Tracer::Global().Reset();
  ASSERT_TRUE(engine->ResolveRefs(refs).ok());
  EXPECT_EQ(Structure(Tracer::Global().Snapshot()), kStageSpans);

  Tracer::Global().Reset();
  ASSERT_TRUE(engine->ResolveRefsArtifacts(refs).ok());
  EXPECT_EQ(Structure(Tracer::Global().Snapshot()), kStageSpans);

  Tracer::Global().Reset();
  ASSERT_TRUE(ResolveGroup(*engine, refs, nullptr, engine->memo(),
                           engine->workspaces(), /*cancel=*/nullptr)
                  .ok());
  EXPECT_TRUE(Tracer::Global().Snapshot().empty());

  // A delta splice: apply_delta, then the three stage spans once per
  // re-resolved name. Jiong Yang joins paper 2, which also dirties Wei
  // Wang (both are spliced), and Jian Pei's second reference brings a
  // name into the catalog (resolved fresh).
  ScanOptions scan;
  scan.min_refs = 2;
  IncrementalCatalog catalog(*engine, scan);
  ASSERT_TRUE(catalog.Build().ok());
  DatabaseDelta delta;
  delta.Add(kPublishTable, {Value::Int(7), Value::Int(testing_util::kJiongYang),
                            Value::Int(2)});
  delta.Add(kPublishTable, {Value::Int(8), Value::Int(testing_util::kJianPei),
                            Value::Int(0)});
  Tracer::Global().Reset();
  auto report = catalog.Apply(db, delta);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->names_reresolved, 3);
  std::vector<std::string> want = {"apply_delta(-1,0)"};
  for (int64_t n = 0; n < report->names_reresolved; ++n) {
    want.insert(want.end(), kStageSpans.begin(), kStageSpans.end());
  }
  EXPECT_EQ(Structure(Tracer::Global().Snapshot()), want);
}

TEST_F(TraceTest, ParallelBulkScanRecordsOneSpanPerRun) {
  const Database db = testing_util::MakeMiniDblp();
  DistinctConfig config;
  config.supervised = false;
  auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ScanOptions scan;
  scan.min_refs = 2;
  auto groups = ScanNameGroups(*engine, scan);
  ASSERT_TRUE(groups.ok());

  std::vector<std::string> baseline;
  for (const int threads : {2, 8}) {
    Tracer::Global().Reset();
    auto stats = ResolveAllNamesParallel(*engine, *groups, threads);
    ASSERT_TRUE(stats.ok());
    // The run is a one-shard sharded scan. Worker lambdas record only
    // counters/histograms; the whole fan-out is the scan's span and its one
    // shard's span, both on the calling thread, at any worker count.
    const std::vector<std::string> structure =
        Structure(Tracer::Global().Snapshot());
    ASSERT_EQ(structure.size(), 2u);
    EXPECT_EQ(structure[0], "sharded_scan(-1,0)");
    EXPECT_EQ(structure[1], "scan_shard(0,0)");
    if (baseline.empty()) {
      baseline = structure;
    } else {
      EXPECT_EQ(structure, baseline) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace obs
}  // namespace distinct
