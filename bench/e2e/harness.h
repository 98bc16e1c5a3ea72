// Shared machinery of bench_e2e: run options, the metric report, set-up
// repetition, span-based per-layer accounting, the bench-side replay of a
// scan through the layer calls, and run provenance.
//
// Every workload (workloads.h) fills one Report. The report renders every
// metric by name and unit, writes BENCH_e2e_<workload>.json, and prints one
// JSON result object as the last line of standard output: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.

#ifndef DISTINCT_BENCH_E2E_HARNESS_H_
#define DISTINCT_BENCH_E2E_HARNESS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "core/distinct.h"
#include "core/scan.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace distinct {
namespace e2e {

/// Kernel threads of every workload. The serve load generator adds one
/// sender and one receiver thread; nothing else runs in the process.
inline constexpr int kThreads = 4;

struct RunOptions {
  std::string workload;
  uint64_t seed = 42;
  /// Length of the measured phase. A workload finishes the operation in
  /// flight when the time is up, so the phase may overrun by one operation.
  double seconds = 10.0;
  /// Per-layer run: observability on, bench-side spans, Chrome trace.
  bool trace = false;
  /// Small inputs and a single set-up, for the ctest smoke run.
  bool smoke = false;
  /// Scratch directory for corpora, catalogs and checkpoints.
  std::string work_dir;
  /// Where BENCH_e2e_<workload>.json and the trace files go.
  std::string out_dir;
};

enum class MetricKind {
  kEndToEnd,  // BENCHMARK.json end_to_end: measured with tracing off
  kLayer,     // BENCHMARK.json per_layer: measured in the traced run
  kExtra,     // workload-specific detail, printed and written, not gated
};

/// Metrics, provenance and correctness checks of one workload run.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void Add(MetricKind kind, const std::string& name, double value,
           const std::string& unit);
  void Fact(const std::string& name, const std::string& value);
  void Fact(const std::string& name, int64_t value);

  /// Records a correctness check. A failed check makes the run incorrect
  /// (exit code 1) but the run still reports what it measured.
  bool Check(bool ok, const std::string& what);

  /// Operations attempted and failed (errors, refusals) so far.
  void CountOps(int64_t attempted, int64_t failed);

  /// Prints every metric with its unit, writes BENCH_e2e_<workload>.json
  /// into options.out_dir, and prints the result object as the last line.
  /// Returns the process exit code.
  int Finish(const RunOptions& options) const;

 private:
  struct Entry {
    MetricKind kind;
    std::string name;
    double value;
    std::string unit;
  };
  std::string workload_;
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> facts_;
  std::vector<std::string> failed_checks_;
  int64_t checks_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Fails the process with `what` and the status message when `status` is
/// not OK — set-up that cannot proceed has nothing to report.
void DieIfError(const Status& status, const std::string& what);

template <typename T>
T ValueOrDie(StatusOr<T> value, const std::string& what) {
  DieIfError(value.status(), what);
  return *std::move(value);
}

/// p-th percentile (p in [0, 1]) by nearest rank; 0 for no samples.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

/// CPU seconds (user + system, all threads) this process has used. The
/// kernel leaves time stolen by other tenants of a virtualised host out of
/// it, which is why the gated metrics are CPU time (README, "Why CPU time").
double ProcessCpuSeconds();

/// Wall and process CPU time since construction.
class OpTimer {
 public:
  OpTimer() : cpu_start_(ProcessCpuSeconds()) {}
  double WallMs() const { return wall_.Millis(); }
  double CpuMs() const { return (ProcessCpuSeconds() - cpu_start_) * 1e3; }

 private:
  Stopwatch wall_;
  double cpu_start_;
};

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb();

/// Hands memory the allocator holds but no longer uses back to the
/// kernel, so the peak resident set of repeated set-ups measures one
/// set-up's live memory rather than how the previous one fragmented.
void ReleaseFreedMemory();

/// Set-up times of one run: setup_s is the median CPU seconds over the
/// set-ups, setup.wall_s the median wall seconds.
struct SetupTimes {
  std::vector<double> cpu_s;
  std::vector<double> wall_s;
  void Add(const OpTimer& timer) {
    cpu_s.push_back(timer.CpuMs() * 1e-3);
    wall_s.push_back(timer.WallMs() * 1e-3);
  }
  void ReportTo(Report& report) const;
};

/// Runs `setup` `repeats` times (once in a traced or smoke run), keeping
/// only the last result alive so repeated set-ups do not stack their
/// memory, and reports the set-up times.
template <typename T>
T RepeatSetup(const RunOptions& options, int repeats, Report& report,
              const std::function<T()>& setup) {
  const int runs = options.trace || options.smoke ? 1 : repeats;
  SetupTimes times;
  std::optional<T> kept;
  for (int i = 0; i < runs; ++i) {
    kept.reset();
    ReleaseFreedMemory();
    const OpTimer timer;
    kept.emplace(setup());
    times.Add(timer);
  }
  times.ReportTo(report);
  return *std::move(kept);
}

/// Reports the measured phase of a workload: cpu_ms_per_op, computed by
/// the workload (README: which statistic each one takes, and why),
/// peak_rss_mb, and the wall-clock view as extras — ops, wall.per_s
/// (`work` units, such as references resolved, per second of operation
/// wall time) and wall.p50_ms / wall.p90_ms per operation.
void ReportOps(double cpu_ms_per_op, const std::vector<double>& wall_ms,
               double work, Report& report);

/// Median over operations of CPU ms per unit of work: for workloads that
/// repeat the same operation, so the median sets aside the repetitions
/// that contention on the host slowed.
double MedianCpuPerUnit(const std::vector<double>& cpu_ms,
                        const std::vector<double>& work);

/// Engine configuration shared by every workload: the DBLP promotions,
/// the headline min-sim, kThreads kernel threads, and observability when
/// the run is traced.
DistinctConfig EngineConfig(const RunOptions& options, bool supervised);

/// Exact equality of two clusterings: assignments and every merge step,
/// similarities compared bit for bit.
bool SameClustering(const ClusteringResult& x, const ClusteringResult& y);

/// SameClustering over two scans, plus equal names and sizes.
bool SameResolutions(const std::vector<BulkResolution>& a,
                     const std::vector<BulkResolution>& b);

/// Every `stride`-th item starting at `offset`. Over scan groups, which
/// come sorted by descending size, this is a size-stratified sample.
template <typename T>
std::vector<T> EveryNth(const std::vector<T>& items, size_t stride,
                        size_t offset) {
  std::vector<T> sample;
  for (size_t i = offset; i < items.size(); i += std::max<size_t>(stride, 1)) {
    sample.push_back(items[i]);
  }
  return sample;
}

/// A permutation of 0..n-1 that strides through the range by about n/φ, so
/// any prefix of it covers the whole range evenly. Applied to items sorted
/// by cost, it makes the first k items of every seed's input a stratified
/// sample: which item sits at a rank changes with the seed, the cost
/// profile of the first k does not.
std::vector<size_t> SpreadOrder(size_t n);

int64_t TotalRefs(const std::vector<NameGroup>& groups);

/// Turns on metrics and tracing and clears what earlier phases recorded.
void StartTracing();

/// What a workload hands to its traced run's per-layer metrics
/// (BENCHMARK.json per_layer):
///  - `create_spans`: the spans of the traced set-up, for core.*;
///  - `measured_*`: counters over the measured phase, for the memo hit
///    rate, evictions, merges and pool utilization;
///  - `replay_*`: counters over the subtree whose prop/sim/cluster split is
///    reported, when that is the measured phase itself (FinishTracedRun
///    takes them around its replay otherwise).
struct LayerInputs {
  std::vector<obs::SpanRecord> create_spans;
  obs::MetricsSnapshot measured_before;
  obs::MetricsSnapshot measured_after;
  obs::MetricsSnapshot replay_before;
  obs::MetricsSnapshot replay_after;
};

/// The end of every traced run. Replays `replay` with tracing off and then
/// on (under a root span "replay") for trace.overhead_ratio, and checks
/// both against `expected` when given (parallel to `replay`). The
/// prop/sim/cluster split comes from the subtree of the last span named
/// `layers_root`: "replay" for workloads whose measured phase has no
/// spans of its own inside the layers, or the measured phase's root when
/// the library's own spans already split it (then the counters of
/// `inputs.replay_*` must cover that phase). Then sweeps threads over
/// `sweep` (RunShardedScan at 1, 2 and kThreads threads, three rounds
/// interleaved, the fastest run of each kept; every result must equal the
/// first) for pool.scaling_2t and pool.scaling_4t, reports the per-layer
/// metrics, and writes the Chrome trace and the self-time table of the
/// run into options.out_dir.
void FinishTracedRun(const RunOptions& options, const Distinct& engine,
                     const std::vector<NameGroup>& replay,
                     const std::vector<BulkResolution>* expected,
                     const std::vector<NameGroup>& sweep,
                     const std::string& layers_root, LayerInputs inputs,
                     Report& report);

/// Records CPUs (sched_getaffinity), hardware_concurrency, threads used,
/// build type, git sha, seed and run length as facts.
void AddProvenance(const RunOptions& options, Report& report);

}  // namespace e2e
}  // namespace distinct

#endif  // DISTINCT_BENCH_E2E_HARNESS_H_
