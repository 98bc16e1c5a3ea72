#include "harness.h"

#include <malloc.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>

#include "common/io_util.h"
#include "common/string_util.h"
#include "common/text_table.h"
#include "common/thread_pool.h"
#include "core/scan_shard.h"
#include "dblp/schema.h"
#include "obs/json_writer.h"
#include "obs/trace_export.h"
#include "sim/parallel_kernel.h"
#include "sim/profile_store.h"

#ifndef DISTINCT_E2E_BUILD_TYPE
#define DISTINCT_E2E_BUILD_TYPE "unknown"
#endif

namespace distinct {
namespace e2e {

namespace {

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kEndToEnd:
      return "end_to_end";
    case MetricKind::kLayer:
      return "per_layer";
    case MetricKind::kExtra:
      return "extra";
  }
  return "extra";
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace

void Report::Add(MetricKind kind, const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({kind, name, value, unit});
}

void Report::Fact(const std::string& name, const std::string& value) {
  facts_.emplace_back(name, value);
}

void Report::Fact(const std::string& name, int64_t value) {
  facts_.emplace_back(name, std::to_string(value));
}

bool Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    failed_checks_.push_back(what);
    std::fprintf(stderr, "bench_e2e %s: CHECK FAILED: %s\n", workload_.c_str(),
                 what.c_str());
  }
  return ok;
}

void Report::CountOps(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

int Report::Finish(const RunOptions& options) const {
  const MetricKind gated =
      options.trace ? MetricKind::kLayer : MetricKind::kEndToEnd;
  const bool correct = failed_checks_.empty() && attempted_ > 0;

  std::printf("\n== bench_e2e %s (%s run) ==\n", workload_.c_str(),
              options.trace ? "traced" : "untraced");
  for (const auto& [name, value] : facts_) {
    std::printf("  %-22s %s\n", name.c_str(), value.c_str());
  }
  TextTable table({"metric", "value", "unit", "kind"});
  table.SetRightAlign(1);
  for (const Entry& entry : metrics_) {
    std::string kind = KindName(entry.kind);
    if (entry.kind == MetricKind::kEndToEnd && options.trace) {
      kind += " (traced: not gated)";
    }
    table.AddRow({entry.name, StrFormat("%.6g", entry.value), entry.unit,
                  kind});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("ops: %lld attempted, %lld failed; correctness: %lld checks, "
              "%zu failed\n",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_),
              static_cast<long long>(checks_), failed_checks_.size());

  obs::JsonWriter file;
  file.BeginObject();
  file.Key("bench").Value("e2e_" + workload_);
  for (const auto& [name, value] : facts_) {
    file.Key(name).Value(value);
  }
  file.Key("correct").Value(correct);
  file.Key("attempted").Value(attempted_);
  file.Key("failed").Value(failed_);
  file.Key("failed_checks").BeginArray();
  for (const std::string& what : failed_checks_) {
    file.Value(what);
  }
  file.EndArray();
  file.Key("metrics").BeginObject();
  for (const Entry& entry : metrics_) {
    file.Key(entry.name).BeginObject();
    file.Key("value").Value(entry.value);
    file.Key("unit").Value(entry.unit);
    file.Key("kind").Value(KindName(entry.kind));
    file.EndObject();
  }
  file.EndObject();
  file.EndObject();
  const std::string path =
      options.out_dir + "/BENCH_e2e_" + workload_ + ".json";
  if (Status s = WriteStringToFile(path, file.str() + "\n", "bench_e2e");
      !s.ok()) {
    std::fprintf(stderr, "warning: %s\n", s.ToString().c_str());
  } else {
    std::printf("wrote %s\n", path.c_str());
  }

  // The result object goes last: whatever runs the benchmark reads only
  // the final line of standard output.
  obs::JsonWriter result;
  result.BeginObject();
  result.Key("correct").Value(correct);
  result.Key("attempted").Value(attempted_);
  result.Key("failed").Value(failed_);
  result.Key("metrics").BeginObject();
  for (const Entry& entry : metrics_) {
    if (entry.kind != gated) {
      continue;
    }
    result.Key(entry.name).BeginObject();
    result.Key("value").Value(entry.value);
    result.Key("unit").Value(entry.unit);
    result.EndObject();
  }
  result.EndObject();
  result.EndObject();
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void DieIfError(const Status& status, const std::string& what) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench_e2e: %s failed: %s\n", what.c_str(),
                 status.ToString().c_str());
    std::exit(1);
  }
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  return samples[static_cast<size_t>(rank + 0.5)];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

void SetupTimes::ReportTo(Report& report) const {
  report.Add(MetricKind::kEndToEnd, "setup_s", Median(cpu_s), "s");
  report.Add(MetricKind::kExtra, "setup.wall_s", Median(wall_s), "s");
  report.Add(MetricKind::kExtra, "setup.count",
             static_cast<double>(cpu_s.size()), "count");
}

double MedianCpuPerUnit(const std::vector<double>& cpu_ms,
                        const std::vector<double>& work) {
  std::vector<double> cpu_per_unit;
  for (size_t i = 0; i < cpu_ms.size(); ++i) {
    cpu_per_unit.push_back(Ratio(cpu_ms[i], work[i]));
  }
  return Median(std::move(cpu_per_unit));
}

void ReportOps(double cpu_ms_per_op, const std::vector<double>& wall_ms,
               double work, Report& report) {
  report.Add(MetricKind::kEndToEnd, "cpu_ms_per_op", cpu_ms_per_op, "ms");
  report.Add(MetricKind::kEndToEnd, "peak_rss_mb", PeakRssMb(), "MB");
  report.Add(MetricKind::kExtra, "ops", static_cast<double>(wall_ms.size()),
             "count");
  report.Add(MetricKind::kExtra, "wall.per_s",
             Ratio(work, std::accumulate(wall_ms.begin(), wall_ms.end(), 0.0) *
                             1e-3),
             "1/s");
  report.Add(MetricKind::kExtra, "wall.p50_ms", Percentile(wall_ms, 0.5),
             "ms");
  report.Add(MetricKind::kExtra, "wall.p90_ms", Percentile(wall_ms, 0.9),
             "ms");
}

void ReleaseFreedMemory() { malloc_trim(0); }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

DistinctConfig EngineConfig(const RunOptions& options, bool supervised) {
  DistinctConfig config;
  config.promotions = DblpDefaultPromotions();
  config.supervised = supervised;
  config.num_threads = kThreads;
  config.observability = options.trace;
  return config;
}

bool SameClustering(const ClusteringResult& x, const ClusteringResult& y) {
  if (x.assignment != y.assignment || x.merges.size() != y.merges.size()) {
    return false;
  }
  for (size_t m = 0; m < x.merges.size(); ++m) {
    if (x.merges[m].into != y.merges[m].into ||
        x.merges[m].from != y.merges[m].from ||
        x.merges[m].similarity != y.merges[m].similarity) {
      return false;
    }
  }
  return true;
}

bool SameResolutions(const std::vector<BulkResolution>& a,
                     const std::vector<BulkResolution>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t g = 0; g < a.size(); ++g) {
    if (a[g].name != b[g].name || a[g].num_refs != b[g].num_refs ||
        !SameClustering(a[g].clustering, b[g].clustering)) {
      return false;
    }
  }
  return true;
}

std::vector<size_t> SpreadOrder(size_t n) {
  size_t step = std::max<size_t>(1, static_cast<size_t>(
                                        static_cast<double>(n) * 0.6180339887));
  while (std::gcd(step, n) > 1) {
    ++step;
  }
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = (i * step) % n;
  }
  return order;
}

int64_t TotalRefs(const std::vector<NameGroup>& groups) {
  int64_t refs = 0;
  for (const NameGroup& group : groups) {
    refs += static_cast<int64_t>(group.refs.size());
  }
  return refs;
}

void StartTracing() {
  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().Reset();
  obs::Tracer::Global().Reset();
}

namespace {

/// Resolves `groups` one after another through the calls a scan makes per
/// group — ProfileStore::Build, ComputePairMatrices with the clustering
/// kernel options, ClusterReferences — each under its own span ("prop",
/// "sim", "cluster"). Groups run in order on the calling thread; inside a
/// group the propagations and tiles fan out over a kThreads pool, with one
/// memo and workspace pool shared by the whole replay, like a scan.
/// With observability off the spans cost nothing, so the same call is the
/// untraced reference the tracing overhead is measured against.
std::vector<BulkResolution> ReplayGroups(
    const Distinct& engine, const std::vector<NameGroup>& groups) {
  const DistinctConfig& config = engine.config();
  std::unique_ptr<SubtreeCache> memo;
  std::unique_ptr<WorkspacePool> workspaces;
  if (config.propagation.algorithm == PropagationAlgorithm::kWorkspace) {
    memo = std::make_unique<SubtreeCache>(config.propagation.cache_bytes);
    workspaces =
        std::make_unique<WorkspacePool>(engine.propagation_engine().link());
  }
  ThreadPool pool(kThreads);
  const PairKernelOptions kernel =
      engine.kernel_options(/*for_clustering=*/true);
  const AgglomerativeOptions cluster_options = engine.cluster_options();

  std::vector<BulkResolution> resolutions;
  resolutions.reserve(groups.size());
  for (const NameGroup& group : groups) {
    std::optional<ProfileStore> store;
    {
      DISTINCT_TRACE_SPAN("prop");
      store.emplace(ProfileStore::Build(
          engine.propagation_engine(), engine.paths(), config.propagation,
          group.refs, &pool, ProfileStore::kMinParallelRefs, memo.get(),
          workspaces.get()));
    }
    std::optional<std::pair<PairMatrix, PairMatrix>> matrices;
    {
      DISTINCT_TRACE_SPAN("sim");
      matrices.emplace(
          ComputePairMatrices(*store, engine.model(), &pool, kernel));
    }
    BulkResolution resolution;
    resolution.name = group.name;
    resolution.num_refs = group.refs.size();
    {
      DISTINCT_TRACE_SPAN("cluster");
      resolution.clustering = ClusterReferences(
          matrices->first, matrices->second, cluster_options);
    }
    // Freeing what a layer built is that layer's cost, so that the
    // replay's own self time is its loop alone.
    {
      DISTINCT_TRACE_SPAN("sim");
      matrices.reset();
    }
    {
      DISTINCT_TRACE_SPAN("prop");
      store.reset();
    }
    resolutions.push_back(std::move(resolution));
  }
  return resolutions;
}

/// Seconds of self time per layer, summed over the subtree under a root
/// span, plus the root's wall time. Layers are named after the source
/// modules; LayerOf maps span names to them.
struct LayerTimes {
  std::map<std::string, double> self_seconds;
  double wall_seconds = 0.0;
  double Self(const std::string& layer) const {
    auto it = self_seconds.find(layer);
    return it == self_seconds.end() ? 0.0 : it->second;
  }
};

std::string LayerOf(const std::string& span_name) {
  // Bench-side spans carry their layer as a prefix ("catalog.ingest").
  const size_t dot = span_name.find('.');
  if (dot != std::string::npos) {
    return span_name.substr(0, dot);
  }
  // Spans the library opens itself, by the module that opens them.
  static const std::map<std::string, std::string> kLibrarySpans = {
      {"create", "core"},           {"schema_graph", "core"},
      {"link_graph", "core"},       {"enumerate_paths", "core"},
      {"name_index", "core"},       {"read", "core"},
      {"train", "train"},           {"training_set", "train"},
      {"pair_features", "train"},   {"calibrate_min_sim", "train"},
      {"svm_resemblance", "svm"},   {"svm_walk", "svm"},
      {"prop", "prop"},             {"profile_store", "prop"},
      {"sim", "sim"},               {"pair_matrix", "sim"},
      {"arena_patch", "sim"},       {"cluster", "cluster"},
      {"replay", "scan"},           {"sharded_scan", "scan"},
      {"scan_shard", "scan"},       {"bulk_resolve", "scan"},
      {"bulk_resolve_parallel", "scan"},
      {"apply_delta", "delta"},
  };
  auto it = kLibrarySpans.find(span_name);
  return it == kLibrarySpans.end() ? "other" : it->second;
}

/// Each span's duration minus the part of it its child spans cover.
std::vector<double> SpanSelfSeconds(
    const std::vector<obs::SpanRecord>& spans) {
  std::vector<int64_t> child_nanos(spans.size(), 0);
  for (const obs::SpanRecord& span : spans) {
    if (span.parent >= 0) {
      child_nanos[static_cast<size_t>(span.parent)] +=
          std::max<int64_t>(span.duration_nanos, 0);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(std::max<int64_t>(
                  spans[i].duration_nanos - child_nanos[i], 0)) *
              1e-9;
  }
  return self;
}

LayerTimes SelfTimes(const std::vector<obs::SpanRecord>& spans, int root) {
  LayerTimes times;
  if (root < 0 || root >= static_cast<int>(spans.size())) {
    return times;
  }
  times.wall_seconds = static_cast<double>(
                           std::max<int64_t>(spans[root].duration_nanos, 0)) *
                       1e-9;
  // A span is recorded when it opens, so its descendants follow it; one
  // pass marks membership in the root's subtree.
  const std::vector<double> self = SpanSelfSeconds(spans);
  std::vector<char> inside(spans.size(), 0);
  inside[static_cast<size_t>(root)] = 1;
  for (size_t i = static_cast<size_t>(root); i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (i != static_cast<size_t>(root) &&
        (parent < 0 || !inside[static_cast<size_t>(parent)])) {
      continue;
    }
    inside[i] = 1;
    times.self_seconds[LayerOf(spans[i].name)] += self[i];
  }
  return times;
}

/// Index of the last recorded span named `name`, or -1.
int LastSpan(const std::vector<obs::SpanRecord>& spans,
             const std::string& name) {
  for (int i = static_cast<int>(spans.size()) - 1; i >= 0; --i) {
    if (spans[static_cast<size_t>(i)].name == name) {
      return i;
    }
  }
  return -1;
}

/// Duration in seconds of the last span named `name` (0 when absent).
double SpanSeconds(const std::vector<obs::SpanRecord>& spans,
                   const std::string& name) {
  const int index = LastSpan(spans, name);
  return index < 0 ? 0.0
                   : static_cast<double>(std::max<int64_t>(
                         spans[static_cast<size_t>(index)].duration_nanos,
                         0)) *
                         1e-9;
}

int64_t CounterDelta(const obs::MetricsSnapshot& before,
                     const obs::MetricsSnapshot& after,
                     const std::string& name) {
  return after.CounterValue(name) - before.CounterValue(name);
}

void ReportLayers(const LayerInputs& in, const LayerTimes& layers,
                  double traced_s, double untraced_s, Report& report) {
  const auto measured = [&](const char* name) {
    return static_cast<double>(
        CounterDelta(in.measured_before, in.measured_after, name));
  };
  const auto replayed = [&](const char* name) {
    return static_cast<double>(
        CounterDelta(in.replay_before, in.replay_after, name));
  };
  const double wall = layers.wall_seconds;

  report.Add(MetricKind::kLayer, "core.create_s",
             SpanSeconds(in.create_spans, "create"), "s");
  report.Add(MetricKind::kLayer, "core.link_graph_s",
             SpanSeconds(in.create_spans, "link_graph"), "s");
  report.Add(MetricKind::kLayer, "core.name_index_s",
             SpanSeconds(in.create_spans, "name_index"), "s");

  const double prop_s = layers.Self("prop");
  report.Add(MetricKind::kLayer, "prop.s", prop_s, "s");
  report.Add(MetricKind::kLayer, "prop.share", Ratio(prop_s, wall), "ratio");
  report.Add(MetricKind::kLayer, "prop.refs_per_s",
             Ratio(replayed("prop.profiles_built"), prop_s), "1/s");
  const double hits = measured("prop.memo_hits");
  report.Add(MetricKind::kLayer, "prop.memo_hit_rate",
             Ratio(hits, hits + measured("prop.memo_misses")), "ratio");
  report.Add(MetricKind::kLayer, "prop.memo_evictions",
             measured("prop.memo_evictions"), "count");

  const double sim_s = layers.Self("sim");
  report.Add(MetricKind::kLayer, "sim.s", sim_s, "s");
  report.Add(MetricKind::kLayer, "sim.share", Ratio(sim_s, wall), "ratio");
  report.Add(MetricKind::kLayer, "sim.pairs_per_s",
             Ratio(replayed("sim.pairs_computed"), sim_s), "1/s");
  report.Add(MetricKind::kLayer, "sim.candidate_share",
             Ratio(replayed("sim.candidate_pairs"),
                   replayed("sim.pairs_computed")),
             "ratio");

  const double cluster_s = layers.Self("cluster");
  report.Add(MetricKind::kLayer, "cluster.s", cluster_s, "s");
  report.Add(MetricKind::kLayer, "cluster.share", Ratio(cluster_s, wall),
             "ratio");
  report.Add(MetricKind::kLayer, "cluster.merges", measured("cluster.merges"),
             "count");

  const double busy = measured("pool.busy_nanos");
  report.Add(MetricKind::kLayer, "pool.utilization",
             Ratio(busy, busy + measured("pool.idle_nanos")), "ratio");
  report.Add(MetricKind::kLayer, "trace.overhead_ratio",
             Ratio(traced_s, untraced_s), "ratio");

  report.Add(MetricKind::kExtra, "layers.coverage",
             Ratio(prop_s + sim_s + cluster_s, wall), "ratio");
  report.Add(MetricKind::kExtra, "layers.wall_s", wall, "s");
}

/// Scans `groups` with RunShardedScan (one shard, no checkpoint) at 1, 2
/// and kThreads threads with tracing off, checks every scan agrees with
/// the first, and reports pool.scaling_2t and pool.scaling_4t: one-thread
/// seconds over N-thread seconds.
void ThreadSweep(const Distinct& engine, const std::vector<NameGroup>& groups,
                 Report& report) {
  // Scaling is a wall-clock ratio, so each thread count runs kSweepRounds
  // times, interleaved, and keeps its fastest run: the one other tenants
  // of the host disturbed least.
  constexpr int kSweepRounds = 3;
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(false);
  std::vector<BulkResolution> first;
  const int threads[3] = {1, 2, kThreads};
  double seconds[3] = {0.0, 0.0, 0.0};
  bool agree = true;
  for (int round = 0; round < kSweepRounds; ++round) {
    for (int i = 0; i < 3; ++i) {
      ShardedScanOptions options;
      options.num_threads = threads[i];
      Stopwatch watch;
      auto scan = ValueOrDie(RunShardedScan(engine, groups, options),
                             "thread sweep scan");
      const double elapsed = watch.Seconds();
      seconds[i] = round == 0 ? elapsed : std::min(seconds[i], elapsed);
      if (first.empty()) {
        first = std::move(scan.results);
      } else {
        agree = agree && SameResolutions(first, scan.results);
      }
    }
  }
  obs::SetEnabled(was_enabled);
  report.Check(agree,
               "thread sweep: the 2- and 4-thread scans equal the 1-thread "
               "scan");
  report.Add(MetricKind::kLayer, "pool.scaling_2t",
             Ratio(seconds[0], seconds[1]), "ratio");
  report.Add(MetricKind::kLayer, "pool.scaling_4t",
             Ratio(seconds[0], seconds[2]), "ratio");
  report.Add(MetricKind::kExtra, "pool.sweep_1t_s", seconds[0], "s");
  report.Add(MetricKind::kExtra, "pool.sweep_refs",
             static_cast<double>(TotalRefs(groups)), "count");
}

/// Writes `<out_dir>/trace_<workload>.json` (Chrome trace of every span of
/// the run) and `<out_dir>/layers_<workload>.txt` (self time per span name
/// and per layer), and prints the layer table.
void WriteTraceOutputs(const RunOptions& options) {
  const std::vector<obs::SpanRecord> spans = obs::Tracer::Global().Snapshot();
  const std::string trace_path =
      options.out_dir + "/trace_" + options.workload + ".json";
  obs::TraceProcess process;
  process.name = "bench_e2e " + options.workload;
  process.spans = spans;
  if (Status s = obs::WriteChromeTrace(trace_path, {process}); !s.ok()) {
    std::fprintf(stderr, "warning: %s\n", s.ToString().c_str());
  }

  // Self time per span name and per layer over the whole run.
  std::map<std::string, double> by_name;
  std::map<std::string, double> by_layer;
  const std::vector<double> self = SpanSelfSeconds(spans);
  double total = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name] += self[i];
    by_layer[LayerOf(spans[i].name)] += self[i];
    total += self[i];
  }
  TextTable layers({"layer", "self (s)", "share"});
  layers.SetRightAlign(1);
  layers.SetRightAlign(2);
  for (const auto& [layer, seconds] : by_layer) {
    layers.AddRow({layer, StrFormat("%.4f", seconds),
                   StrFormat("%.3f", Ratio(seconds, total))});
  }
  TextTable names({"span", "layer", "self (s)"});
  names.SetRightAlign(2);
  for (const auto& [name, seconds] : by_name) {
    names.AddRow({name, LayerOf(name), StrFormat("%.4f", seconds)});
  }
  const std::string text = "self time by layer (whole traced run)\n" +
                           layers.Render() + "\nself time by span\n" +
                           names.Render();
  std::printf("\n%s", text.c_str());
  const std::string table_path =
      options.out_dir + "/layers_" + options.workload + ".txt";
  if (Status s = WriteStringToFile(table_path, text, "bench_e2e"); !s.ok()) {
    std::fprintf(stderr, "warning: %s\n", s.ToString().c_str());
  }
  std::printf("wrote %s and %s (%zu spans, %lld dropped)\n",
              trace_path.c_str(), table_path.c_str(), spans.size(),
              static_cast<long long>(obs::Tracer::Global().DroppedSpans()));
}

}  // namespace

void FinishTracedRun(const RunOptions& options, const Distinct& engine,
                     const std::vector<NameGroup>& replay,
                     const std::vector<BulkResolution>* expected,
                     const std::vector<NameGroup>& sweep,
                     const std::string& layers_root, LayerInputs inputs,
                     Report& report) {
  // The overhead compares CPU time, which other tenants of the host move
  // far less than wall time (README, "Why CPU time").
  obs::SetEnabled(false);
  const OpTimer untraced_timer;
  const std::vector<BulkResolution> untraced = ReplayGroups(engine, replay);
  const double untraced_s = untraced_timer.CpuMs() * 1e-3;

  obs::SetEnabled(true);
  const bool split_from_replay = layers_root == "replay";
  if (split_from_replay) {
    inputs.replay_before = obs::MetricsRegistry::Global().Snapshot();
  }
  std::vector<BulkResolution> traced;
  double traced_s = 0.0;
  {
    DISTINCT_TRACE_SPAN("replay");
    const OpTimer traced_timer;
    traced = ReplayGroups(engine, replay);
    traced_s = traced_timer.CpuMs() * 1e-3;
  }
  if (split_from_replay) {
    inputs.replay_after = obs::MetricsRegistry::Global().Snapshot();
  }
  const std::vector<obs::SpanRecord> spans = obs::Tracer::Global().Snapshot();
  const LayerTimes layers = SelfTimes(spans, LastSpan(spans, layers_root));
  report.Check(SameResolutions(untraced, traced),
               "traced and untraced replays agree bit for bit");
  if (expected != nullptr) {
    report.Check(SameResolutions(traced, *expected),
                 "per-group replay equals the measured clusterings bit for "
                 "bit");
  }
  ReportLayers(inputs, layers, traced_s, untraced_s, report);
  ThreadSweep(engine, sweep, report);
  WriteTraceOutputs(options);
}

void AddProvenance(const RunOptions& options, Report& report) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int64_t affinity =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  report.Fact("workload", options.workload);
  report.Fact("seed", static_cast<int64_t>(options.seed));
  report.Fact("run_seconds", StrFormat("%g", options.seconds));
  report.Fact("traced", static_cast<int64_t>(options.trace ? 1 : 0));
  report.Fact("smoke", static_cast<int64_t>(options.smoke ? 1 : 0));
  report.Fact("cpus_affinity", affinity);
  report.Fact("hardware_concurrency",
              static_cast<int64_t>(std::thread::hardware_concurrency()));
  report.Fact("threads_used", static_cast<int64_t>(kThreads));
  report.Fact("build_type", DISTINCT_E2E_BUILD_TYPE);
  const char* sha = std::getenv("DISTINCT_GIT_SHA");
  report.Fact("git_sha", sha != nullptr && *sha != '\0' ? sha : "unknown");
}

}  // namespace e2e
}  // namespace distinct
