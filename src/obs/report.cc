#include "obs/report.h"

#include <cstdio>
#include <map>

#include "common/io_util.h"
#include "common/string_util.h"
#include "common/text_table.h"
#include "obs/json_writer.h"

namespace distinct {
namespace obs {

namespace {

/// Aggregates spans into stages keyed by their root-to-span name path, in
/// first-appearance order (deterministic for a fixed workload).
std::vector<StageSummary> SummarizeStages(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::string> paths(spans.size());
  std::vector<int> depths(spans.size(), 0);
  std::map<std::string, size_t> stage_of_path;
  std::vector<StageSummary> stages;
  for (size_t s = 0; s < spans.size(); ++s) {
    const SpanRecord& span = spans[s];
    if (span.parent >= 0) {
      const auto p = static_cast<size_t>(span.parent);
      paths[s] = paths[p] + "/" + span.name;
      depths[s] = depths[p] + 1;
    } else {
      paths[s] = span.name;
    }
    auto [it, inserted] = stage_of_path.emplace(paths[s], stages.size());
    if (inserted) {
      StageSummary stage;
      stage.path = paths[s];
      stage.depth = depths[s];
      stages.push_back(std::move(stage));
    }
    StageSummary& stage = stages[it->second];
    ++stage.calls;
    if (span.duration_nanos > 0) {
      stage.total_nanos += span.duration_nanos;
    }
  }
  return stages;
}

/// Ratio of two nanosecond-denominated quantities, skipped when the
/// denominator was never recorded.
void AddRate(std::vector<std::pair<std::string, double>>& derived,
             const std::string& name, int64_t numerator,
             int64_t denominator_nanos) {
  if (denominator_nanos > 0) {
    derived.emplace_back(name, static_cast<double>(numerator) /
                                   (static_cast<double>(denominator_nanos) /
                                    1e9));
  }
}

std::vector<std::pair<std::string, double>> ComputeDerived(
    const MetricsSnapshot& metrics) {
  std::vector<std::pair<std::string, double>> derived;

  if (const HistogramSnapshot* fill =
          metrics.FindHistogram("sim.pair_matrix_nanos")) {
    AddRate(derived, "pair_matrix.pairs_per_sec",
            metrics.CounterValue("sim.pairs_computed"), fill->sum);
    AddRate(derived, "pair_matrix.tiles_per_sec",
            metrics.CounterValue("sim.tiles_filled"), fill->sum);
  }
  if (const HistogramSnapshot* build =
          metrics.FindHistogram("sim.profile_build_nanos")) {
    AddRate(derived, "profiles.refs_per_sec",
            metrics.CounterValue("prop.profiles_built"), build->sum);
  }
  const int64_t memo_hits = metrics.CounterValue("prop.memo_hits");
  const int64_t memo_misses = metrics.CounterValue("prop.memo_misses");
  if (memo_hits + memo_misses > 0) {
    derived.emplace_back("prop.memo_hit_rate",
                         static_cast<double>(memo_hits) /
                             static_cast<double>(memo_hits + memo_misses));
  }
  const int64_t busy = metrics.CounterValue("pool.busy_nanos");
  const int64_t idle = metrics.CounterValue("pool.idle_nanos");
  if (busy + idle > 0) {
    derived.emplace_back("thread_pool.utilization",
                         static_cast<double>(busy) /
                             static_cast<double>(busy + idle));
  }
  return derived;
}

}  // namespace

RunReport CollectRunReport(std::string label) {
  RunReport report;
  report.label = std::move(label);
  report.metrics = MetricsRegistry::Global().Snapshot();
  report.spans = Tracer::Global().Snapshot();
  report.spans_dropped = Tracer::Global().DroppedSpans();
  MemoryTracker::Global().SampleRss();  // refresh the RSS gauge
  report.memory = MemoryTracker::Global().Snapshot();
  report.stages = SummarizeStages(report.spans);
  report.derived = ComputeDerived(report.metrics);
  return report;
}

std::string RunReportToJson(const RunReport& report) {
  JsonWriter json;
  json.BeginObject();
  json.Key("distinct_run_report").Value(RunReport::kSchemaVersion);
  json.Key("label").Value(report.label);
  json.Key("spans_dropped").Value(report.spans_dropped);

  json.Key("stages").BeginArray();
  for (const StageSummary& stage : report.stages) {
    json.BeginObject();
    json.Key("path").Value(stage.path);
    json.Key("calls").Value(stage.calls);
    json.Key("total_ns").Value(stage.total_nanos);
    json.EndObject();
  }
  json.EndArray();

  json.Key("spans").BeginArray();
  for (const SpanRecord& span : report.spans) {
    json.BeginObject();
    json.Key("name").Value(span.name);
    json.Key("start_ns").Value(span.start_nanos);
    json.Key("duration_ns").Value(span.duration_nanos);
    json.Key("parent").Value(span.parent);
    json.Key("thread").Value(span.thread);
    json.EndObject();
  }
  json.EndArray();

  json.Key("counters").BeginObject();
  for (const auto& [name, value] : report.metrics.counters) {
    json.Key(name).Value(value);
  }
  json.EndObject();

  json.Key("gauges").BeginObject();
  for (const auto& [name, value] : report.metrics.gauges) {
    json.Key(name).Value(value);
  }
  json.EndObject();

  json.Key("histograms").BeginArray();
  for (const HistogramSnapshot& histogram : report.metrics.histograms) {
    json.BeginObject();
    json.Key("name").Value(histogram.name);
    json.Key("count").Value(histogram.count);
    json.Key("sum_ns").Value(histogram.sum);
    json.Key("mean_ns").Value(histogram.MeanNanos());
    json.Key("p50_ns").Value(histogram.PercentileUpperBoundNanos(0.50));
    json.Key("p95_ns").Value(histogram.PercentileUpperBoundNanos(0.95));
    json.Key("p99_ns").Value(histogram.PercentileUpperBoundNanos(0.99));
    json.Key("buckets").BeginArray();
    // Trailing all-zero buckets are elided; parsers treat missing as 0.
    int last = HistogramSnapshot::kNumBuckets - 1;
    while (last >= 0 && histogram.buckets[static_cast<size_t>(last)] == 0) {
      --last;
    }
    for (int b = 0; b <= last; ++b) {
      json.Value(histogram.buckets[static_cast<size_t>(b)]);
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();

  json.Key("memory").BeginArray();
  for (const MemoryTracker::ComponentSnapshot& component : report.memory) {
    json.BeginObject();
    json.Key("component").Value(component.name);
    json.Key("current_bytes").Value(component.current_bytes);
    json.Key("peak_bytes").Value(component.peak_bytes);
    json.EndObject();
  }
  json.EndArray();

  json.Key("derived").BeginObject();
  for (const auto& [name, value] : report.derived) {
    json.Key(name).Value(value);
  }
  json.EndObject();

  json.Key("tables").BeginArray();
  for (const ReportTable& table : report.tables) {
    json.BeginObject();
    json.Key("title").Value(table.title);
    json.Key("header").BeginArray();
    for (const std::string& cell : table.header) {
      json.Value(cell);
    }
    json.EndArray();
    json.Key("rows").BeginArray();
    for (const std::vector<std::string>& row : table.rows) {
      json.BeginArray();
      for (const std::string& cell : row) {
        json.Value(cell);
      }
      json.EndArray();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();

  json.EndObject();
  return json.str();
}

std::string RunReportToText(const RunReport& report) {
  std::string out =
      StrFormat("run report: %s\n\n", report.label.c_str());

  if (!report.stages.empty()) {
    TextTable stages({"stage", "calls", "total (s)"});
    stages.SetRightAlign(1);
    stages.SetRightAlign(2);
    for (const StageSummary& stage : report.stages) {
      const size_t leaf = stage.path.rfind('/');
      const std::string name =
          leaf == std::string::npos ? stage.path : stage.path.substr(leaf + 1);
      stages.AddRow({std::string(static_cast<size_t>(stage.depth) * 2, ' ') +
                         name,
                     StrFormat("%lld", static_cast<long long>(stage.calls)),
                     StrFormat("%.3f",
                               static_cast<double>(stage.total_nanos) / 1e9)});
    }
    out += stages.Render();
    out += "\n";
  }

  if (!report.metrics.counters.empty() || !report.metrics.gauges.empty()) {
    TextTable counters({"metric", "value"});
    counters.SetRightAlign(1);
    for (const auto& [name, value] : report.metrics.counters) {
      counters.AddRow({name, StrFormat("%lld", static_cast<long long>(value))});
    }
    for (const auto& [name, value] : report.metrics.gauges) {
      counters.AddRow({name + " (gauge)",
                       StrFormat("%lld", static_cast<long long>(value))});
    }
    if (report.spans_dropped > 0) {
      counters.AddRow(
          {"obs.spans_dropped (trace truncated)",
           StrFormat("%lld", static_cast<long long>(report.spans_dropped))});
    }
    out += counters.Render();
    out += "\n";
  }

  if (!report.metrics.histograms.empty()) {
    TextTable histograms({"histogram", "count", "mean (ms)", "p50 <= (ms)",
                          "p95 <= (ms)", "p99 <= (ms)"});
    for (size_t c = 1; c <= 5; ++c) {
      histograms.SetRightAlign(c);
    }
    for (const HistogramSnapshot& histogram : report.metrics.histograms) {
      histograms.AddRow(
          {histogram.name,
           StrFormat("%lld", static_cast<long long>(histogram.count)),
           StrFormat("%.3f", histogram.MeanNanos() / 1e6),
           StrFormat("%.3f", static_cast<double>(
                                 histogram.PercentileUpperBoundNanos(0.50)) /
                                 1e6),
           StrFormat("%.3f", static_cast<double>(
                                 histogram.PercentileUpperBoundNanos(0.95)) /
                                 1e6),
           StrFormat("%.3f", static_cast<double>(
                                 histogram.PercentileUpperBoundNanos(0.99)) /
                                 1e6)});
    }
    out += histograms.Render();
    out += "\n";
  }

  {
    bool any_memory = false;
    for (const MemoryTracker::ComponentSnapshot& component : report.memory) {
      any_memory = any_memory || component.peak_bytes != 0;
    }
    if (any_memory) {
      TextTable memory({"memory", "current (MiB)", "peak (MiB)"});
      memory.SetRightAlign(1);
      memory.SetRightAlign(2);
      for (const MemoryTracker::ComponentSnapshot& component : report.memory) {
        if (component.peak_bytes == 0) {
          continue;  // subsystem never ran
        }
        memory.AddRow(
            {component.name,
             StrFormat("%.1f", static_cast<double>(component.current_bytes) /
                                   (1024.0 * 1024.0)),
             StrFormat("%.1f", static_cast<double>(component.peak_bytes) /
                                   (1024.0 * 1024.0))});
      }
      out += memory.Render();
      out += "\n";
    }
  }

  if (!report.derived.empty()) {
    TextTable derived({"derived", "value"});
    derived.SetRightAlign(1);
    for (const auto& [name, value] : report.derived) {
      derived.AddRow({name, StrFormat("%.3f", value)});
    }
    out += derived.Render();
  }

  for (const ReportTable& table : report.tables) {
    out += "\n";
    out += table.title;
    out += "\n";
    TextTable rendered(table.header);
    for (const std::vector<std::string>& row : table.rows) {
      rendered.AddRow(row);
    }
    out += rendered.Render();
  }
  return out;
}

Status WriteRunReportJson(const RunReport& report, const std::string& path) {
  return WriteStringToFile(path, RunReportToJson(report), "report");
}

}  // namespace obs
}  // namespace distinct
