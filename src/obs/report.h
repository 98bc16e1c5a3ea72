// Structured run reports: one RunReport per pipeline run, built from the
// global MetricsRegistry and Tracer, serialized as JSON (--metrics-json)
// or a human text table (--report).

#ifndef DISTINCT_OBS_REPORT_H_
#define DISTINCT_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace distinct {
namespace obs {

/// One aggregated trace stage: every span sharing the same root-to-span
/// name path ("create/train/svm_resemblance"), in first-appearance order.
struct StageSummary {
  std::string path;
  int depth = 0;
  int64_t calls = 0;
  int64_t total_nanos = 0;
};

/// A caller-supplied table attached to the report (e.g. the sharded scan's
/// per-shard outcomes). obs/ stays ignorant of what the rows mean: rows are
/// pre-rendered strings, serialized under "tables" in the JSON and as one
/// more text table in the text rendering.
struct ReportTable {
  std::string title;
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;  // each sized like header
};

/// Everything recorded during one run.
struct RunReport {
  /// JSON schema version (the "distinct_run_report" field).
  static constexpr int kSchemaVersion = 1;

  std::string label;  // e.g. the CLI command
  MetricsSnapshot metrics;
  std::vector<SpanRecord> spans;
  /// Spans the tracer refused at capacity; non-zero = truncated trace.
  int64_t spans_dropped = 0;
  /// Per-subsystem byte gauges with peak watermarks (obs/memory.h).
  std::vector<MemoryTracker::ComponentSnapshot> memory;
  std::vector<StageSummary> stages;  // derived from spans
  /// Cross-metric ratios (pairs/sec, pool utilization, ...). Ratios whose
  /// inputs were never recorded are omitted.
  std::vector<std::pair<std::string, double>> derived;
  /// Caller-attached tables, rendered after the derived ratios.
  std::vector<ReportTable> tables;
};

/// Snapshots the global registry and tracer and computes stage summaries
/// and derived ratios.
RunReport CollectRunReport(std::string label);

/// Serializes `report` as a single JSON object.
std::string RunReportToJson(const RunReport& report);

/// Renders `report` as human-readable text tables (stages indented by
/// span depth, counters, histograms with bucket-approximated percentiles,
/// derived ratios).
std::string RunReportToText(const RunReport& report);

/// Writes RunReportToJson(report) to `path`.
Status WriteRunReportJson(const RunReport& report, const std::string& path);

}  // namespace obs
}  // namespace distinct

#endif  // DISTINCT_OBS_REPORT_H_
