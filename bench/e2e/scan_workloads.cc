// The two batch workloads: offline_1m (catalog-scale sharded scan) and
// planted_25k (supervised engine, full scans scored against planted truth).

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"
#include "core/evaluation.h"
#include "core/scan_shard.h"
#include "dblp/generator.h"
#include "dblp/schema.h"
#include "eval/metrics.h"
#include "workloads.h"

namespace distinct {
namespace e2e {

namespace {

/// offline_1m scans every kOfflineStride-th name group from rank
/// kOfflineStride / 2: each run of kOfflineStride size ranks is represented
/// by its middle member, so the sample (~490 groups, ~3.4k references,
/// ~72k pairs of the 1M-reference corpus) splits its time between
/// propagation and pair fill as a whole scan does, and takes the same size
/// ranks from every seed's corpus. Starting at the largest group instead
/// would let that one group hold nine tenths of the sample's pairs.
constexpr size_t kOfflineStride = 256;
constexpr size_t kSmokeOfflineStride = 32;
constexpr int kOfflineShards = 4;

/// Seed-42 reference of the planted dataset (EXPERIMENTS.md, Table 2).
constexpr uint64_t kReferenceSeed = 42;
constexpr double kReferenceF1 = 0.910;
constexpr int kReferenceZeroFpNames = 7;
/// Sanity floor for every seed: the average F of the ten planted names
/// swings with the generator seed (0.61 to 0.92 over seeds 1-40, seed 4
/// lowest), so only a broken clustering falls below it.
constexpr double kMinF1 = 0.5;
/// Training takes ~0.15 s on kThreads threads, and its CPU time swings by
/// a quarter between set-ups, so setup_s is the median of many.
constexpr int kPlantedSetups = 9;

int64_t DirectoryBytes(const std::string& dir) {
  int64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      bytes += static_cast<int64_t>(entry.file_size());
    }
  }
  return bytes;
}

int64_t MergeCount(const std::vector<BulkResolution>& results) {
  int64_t merges = 0;
  for (const BulkResolution& resolution : results) {
    merges += resolution.clustering.num_merges;
  }
  return merges;
}

/// Average pairwise F over the planted names, scored on the scan's own
/// clusterings, and how many of them have no false-positive pair.
struct Accuracy {
  double f1 = 0.0;
  int zero_fp_names = 0;
  bool complete = true;  // every planted name found with exactly its refs
};

Accuracy ScorePlanted(const std::vector<AmbiguousCase>& cases,
                      const std::vector<NameGroup>& groups,
                      const std::vector<BulkResolution>& results) {
  std::unordered_map<std::string, size_t> position;
  for (size_t g = 0; g < groups.size(); ++g) {
    position.emplace(groups[g].name, g);
  }
  Accuracy accuracy;
  for (const AmbiguousCase& c : cases) {
    auto it = position.find(c.name);
    if (it == position.end() ||
        groups[it->second].refs.size() != c.publish_rows.size()) {
      accuracy.complete = false;
      continue;
    }
    std::unordered_map<int32_t, int> truth_of_row;
    for (size_t i = 0; i < c.publish_rows.size(); ++i) {
      truth_of_row.emplace(c.publish_rows[i], c.truth[i]);
    }
    std::vector<int> truth;
    for (const int32_t ref : groups[it->second].refs) {
      auto label = truth_of_row.find(ref);
      if (label == truth_of_row.end()) {
        accuracy.complete = false;
        break;
      }
      truth.push_back(label->second);
    }
    if (truth.size() != c.publish_rows.size()) {
      continue;
    }
    const PairwiseScores scores = PairwisePrecisionRecall(
        truth, results[it->second].clustering.assignment);
    accuracy.f1 += scores.f1;
    accuracy.zero_fp_names += scores.false_positives == 0 ? 1 : 0;
  }
  accuracy.f1 /= static_cast<double>(std::max<size_t>(cases.size(), 1));
  return accuracy;
}

}  // namespace

void RunOffline(const RunOptions& options, Report& report) {
  LayerInputs layers;
  const CatalogEngine setup =
      SetUpCatalog(options, report, &layers.create_spans);
  const Distinct& engine = *setup.engine;

  const std::vector<NameGroup> groups = CatalogScanGroups(engine);
  const size_t stride = options.smoke ? kSmokeOfflineStride : kOfflineStride;
  const std::vector<NameGroup> sample = EveryNth(groups, stride, stride / 2);
  int64_t sample_pairs = 0;
  for (const NameGroup& group : sample) {
    sample_pairs += EstimatedPairs(group);
  }
  report.Fact("scan_groups", static_cast<int64_t>(groups.size()));
  report.Fact("sample_groups", static_cast<int64_t>(sample.size()));
  report.Fact("sample_refs", TotalRefs(sample));
  report.Fact("sample_pairs", sample_pairs);

  ShardedScanOptions scan;
  scan.num_shards = kOfflineShards;
  scan.num_threads = kThreads;
  scan.checkpoint_dir = options.work_dir + "/checkpoints";
  std::filesystem::create_directories(scan.checkpoint_dir);

  // Measured phase: the same sample scanned again and again; every scan
  // must reproduce the first one exactly.
  layers.measured_before = obs::MetricsRegistry::Global().Snapshot();
  std::vector<double> cpu_ms;
  std::vector<double> wall_ms;
  std::vector<double> refs;
  std::vector<BulkResolution> first;
  std::vector<ShardOutcome> last_shards;
  const Stopwatch phase;
  while (wall_ms.empty() || phase.Seconds() < options.seconds) {
    const OpTimer timer;
    auto result = RunShardedScan(engine, sample, scan);
    cpu_ms.push_back(timer.CpuMs());
    wall_ms.push_back(timer.WallMs());
    if (!result.ok()) {
      report.CountOps(1, 1);
      report.Check(false, "RunShardedScan: " + result.status().ToString());
      break;
    }
    const bool all_shards =
        std::all_of(result->shards.begin(), result->shards.end(),
                    [](const ShardOutcome& shard) {
                      return shard.state == ShardState::kCompleted;
                    });
    report.CountOps(1, all_shards ? 0 : 1);
    refs.push_back(static_cast<double>(result->stats.total_refs));
    if (first.empty()) {
      first = std::move(result->results);
      report.Check(all_shards && first.size() == sample.size(),
                   "every shard of the first scan completed");
    } else if (!SameResolutions(first, result->results)) {
      report.Check(false, StrFormat("scan %zu reproduces the first scan",
                                    wall_ms.size()));
    }
    last_shards = std::move(result->shards);
  }
  layers.measured_after = obs::MetricsRegistry::Global().Snapshot();
  ReportOps(MedianCpuPerUnit(cpu_ms, refs), wall_ms,
            std::accumulate(refs.begin(), refs.end(), 0.0), report);

  double max_shard_s = 0.0;
  double sum_shard_s = 0.0;
  for (const ShardOutcome& shard : last_shards) {
    max_shard_s = std::max(max_shard_s, shard.seconds);
    sum_shard_s += shard.seconds;
  }
  report.Add(MetricKind::kExtra, "scan.shard_imbalance",
             last_shards.empty()
                 ? 0.0
                 : max_shard_s * static_cast<double>(last_shards.size()) /
                       sum_shard_s,
             "ratio");
  report.Add(MetricKind::kExtra, "checkpoint.mb",
             static_cast<double>(DirectoryBytes(scan.checkpoint_dir)) /
                 (1 << 20),
             "MB");
  report.Add(MetricKind::kExtra, "cluster.merges_per_scan",
             static_cast<double>(MergeCount(first)), "count");

  // Outside the measured phase: the checkpoints must resume to the same
  // clusterings. A traced run also checks the per-group replay against
  // them.
  ShardedScanOptions resume = scan;
  resume.resume = true;
  auto resumed = RunShardedScan(engine, sample, resume);
  report.Check(resumed.ok() &&
                   std::all_of(resumed->shards.begin(), resumed->shards.end(),
                               [](const ShardOutcome& shard) {
                                 return shard.state == ShardState::kResumed;
                               }) &&
                   SameResolutions(first, resumed->results),
               "a resumed scan loads every shard from its checkpoint with "
               "identical clusterings");
  if (options.trace) {
    const std::vector<BulkResolution> expected = EveryNth(first, 2, 0);
    FinishTracedRun(options, engine, EveryNth(sample, 2, 0), &expected,
                    CatalogSweepSample(groups), "replay", std::move(layers),
                    report);
  }
}

void RunPlanted(const RunOptions& options, Report& report) {
  GeneratorConfig generator;
  generator.seed = options.seed;
  const DblpDataset dataset =
      ValueOrDie(GenerateDblpDataset(generator), "dataset generation");
  report.Fact("corpus_refs",
              (**dataset.db.FindTable(kPublishTable)).num_rows());

  // Set-up is training: supervised Create over the whole dataset.
  LayerInputs layers;
  if (options.trace) {
    StartTracing();
  }
  const std::unique_ptr<Distinct> engine =
      RepeatSetup<std::unique_ptr<Distinct>>(options, kPlantedSetups, report,
                                             [&] {
        DISTINCT_TRACE_SPAN("core.create");
        return std::make_unique<Distinct>(ValueOrDie(
            Distinct::Create(dataset.db, DblpReferenceSpec(),
                             EngineConfig(options, /*supervised=*/true)),
            "create"));
      });
  layers.create_spans = obs::Tracer::Global().Snapshot();
  report.Add(MetricKind::kExtra, "train.features_s",
             engine->report().seconds_features, "s");
  report.Add(MetricKind::kExtra, "train.svm_s", engine->report().seconds_svm,
             "s");
  report.Add(MetricKind::kExtra, "train.pairs",
             static_cast<double>(engine->report().num_training_pairs),
             "count");

  ScanOptions filter;
  filter.min_refs = 2;
  const std::vector<NameGroup> groups =
      ValueOrDie(ScanNameGroups(*engine, filter), "scan name groups");
  report.Fact("scan_groups", static_cast<int64_t>(groups.size()));
  report.Fact("scan_refs", TotalRefs(groups));

  // Measured phase: full scans of every group, each scored against the
  // planted truth; every scan must reproduce the first one exactly.
  layers.measured_before = obs::MetricsRegistry::Global().Snapshot();
  std::vector<double> cpu_ms;
  std::vector<double> wall_ms;
  std::vector<double> refs;
  std::vector<BulkResolution> first;
  Accuracy accuracy;
  const Stopwatch phase;
  while (wall_ms.empty() || phase.Seconds() < options.seconds) {
    std::vector<BulkResolution> results;
    const OpTimer timer;
    auto stats = ResolveAllNamesParallel(*engine, groups, kThreads, &results);
    cpu_ms.push_back(timer.CpuMs());
    wall_ms.push_back(timer.WallMs());
    report.CountOps(1, stats.ok() ? 0 : 1);
    if (!stats.ok()) {
      report.Check(false,
                   "ResolveAllNamesParallel: " + stats.status().ToString());
      break;
    }
    refs.push_back(static_cast<double>(stats->total_refs));
    const Accuracy scored = ScorePlanted(dataset.cases, groups, results);
    if (first.empty()) {
      first = std::move(results);
      accuracy = scored;
    } else if (!SameResolutions(first, results) ||
               scored.f1 != accuracy.f1) {
      report.Check(false, StrFormat("scan %zu reproduces the first scan and "
                                    "its accuracy",
                                    wall_ms.size()));
    }
  }
  layers.measured_after = obs::MetricsRegistry::Global().Snapshot();
  ReportOps(MedianCpuPerUnit(cpu_ms, refs), wall_ms,
            std::accumulate(refs.begin(), refs.end(), 0.0), report);
  report.Add(MetricKind::kExtra, "accuracy_f1", accuracy.f1, "ratio");
  report.Add(MetricKind::kExtra, "accuracy.zero_fp_names",
             accuracy.zero_fp_names, "count");
  report.Add(MetricKind::kExtra, "cluster.merges_per_scan",
             static_cast<double>(MergeCount(first)), "count");

  // The scan's accuracy must be the library's own evaluation of the same
  // engine (ResolveRefs per planted name), and sane for any seed; seed 42
  // must reproduce the reference numbers exactly.
  const AggregateScores evaluated = Aggregate(ValueOrDie(
      EvaluateCases(*engine, dataset.cases), "evaluate planted names"));
  report.Check(accuracy.complete,
               "every planted name is one scan group with exactly its "
               "references");
  report.Check(accuracy.f1 == evaluated.f1,
               StrFormat("scan accuracy F %.4f equals EvaluateCases F %.4f",
                         accuracy.f1, evaluated.f1));
  report.Check(accuracy.f1 >= kMinF1,
               StrFormat("average F %.4f >= %.2f", accuracy.f1, kMinF1));
  if (options.seed == kReferenceSeed) {
    report.Check(std::fabs(accuracy.f1 - kReferenceF1) < 5e-4,
                 StrFormat("seed-42 average F %.4f is the reference %.3f",
                           accuracy.f1, kReferenceF1));
    report.Check(accuracy.zero_fp_names >= kReferenceZeroFpNames,
                 StrFormat("%d of 10 names without false positives (>= %d)",
                           accuracy.zero_fp_names, kReferenceZeroFpNames));
  }

  if (options.trace) {
    FinishTracedRun(options, *engine, groups, &first, groups, "replay",
                    std::move(layers), report);
  }
}

}  // namespace e2e
}  // namespace distinct
