#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../test_util.h"
#include "core/distinct.h"
#include "core/scan.h"
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
    // Worker lambdas record only counters/histograms; the whole fan-out is
    // one span on the calling thread, at any worker count.
    const std::vector<std::string> structure =
        Structure(Tracer::Global().Snapshot());
    ASSERT_EQ(structure.size(), 1u);
    EXPECT_EQ(structure[0], "bulk_resolve_parallel(-1,0)");
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
