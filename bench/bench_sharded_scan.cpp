// Sharded bulk-scan overhead: the full filtered-scan workload resolved by
// ResolveAllNamesParallel (one shard, no budget: the baseline), then by
// RunShardedScan at several shard counts and under a memory budget, verifying
// byte-identical output every time. Shards run sequentially on one thread
// pool, subtree memo and workspace pool per scan, so sharding buys
// memory-boundedness and checkpointability, not speed — the harness
// measures what that costs.

#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/text_table.h"
#include "core/scan.h"
#include "core/scan_shard.h"
#include "dblp/schema.h"

int main(int argc, char** argv) {
  using namespace distinct;
  using namespace distinct::bench;

  FlagParser flags;
  flags.AddInt64("seed", static_cast<int64_t>(kDefaultSeed),
                 "generator seed");
  flags.AddInt64("threads", 4, "worker threads of each scan");
  flags.AddInt64("min-refs", 4, "scan filter: minimum references per name");
  flags.AddInt64("budget-mb", 64, "memory budget for the budgeted run");
  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.Help().c_str());
    return 1;
  }

  PrintBanner("bench_sharded_scan",
              "sharded scan overhead (implementation, not a paper figure)");

  GeneratorConfig generator = StandardGeneratorConfig(
      static_cast<uint64_t>(flags.GetInt64("seed")));
  DblpDataset dataset = MustGenerate(generator);

  // Unsupervised: path-weight training is not what is being measured.
  DistinctConfig config;
  config.supervised = false;
  config.promotions = DblpDefaultPromotions();
  Distinct engine = MustCreate(dataset.db, config);

  ScanOptions scan;
  scan.min_refs = flags.GetInt64("min-refs");
  auto groups = ScanNameGroups(engine, scan);
  if (!groups.ok()) {
    std::fprintf(stderr, "%s\n", groups.status().ToString().c_str());
    return 1;
  }
  const int threads = MustIntInRange(flags, "threads", 1, 4096);
  std::printf("%zu name groups, %d threads, %u hardware threads\n\n",
              groups->size(), threads,
              std::thread::hardware_concurrency());

  // One-shard, unbudgeted baseline.
  Stopwatch baseline_watch;
  std::vector<BulkResolution> baseline;
  auto baseline_stats =
      ResolveAllNamesParallel(engine, *groups, threads, &baseline);
  if (!baseline_stats.ok()) {
    std::fprintf(stderr, "%s\n",
                 baseline_stats.status().ToString().c_str());
    return 1;
  }
  const double baseline_s = baseline_watch.Seconds();

  TextTable table({"configuration", "shards", "time (s)", "overhead",
                   "exact"});
  for (size_t c = 1; c <= 4; ++c) table.SetRightAlign(c);
  table.AddRow({"unsharded", "-", StrFormat("%.3f", baseline_s), "1.00",
                "-"});

  BenchJson json("sharded_scan");
  json.Add("seed", flags.GetInt64("seed"));
  json.Add("groups", static_cast<int64_t>(groups->size()));
  json.Add("refs", baseline_stats->total_refs);
  json.Add("threads", static_cast<int64_t>(threads));
  json.Add("unsharded_s", baseline_s);

  const int64_t budget_mb = flags.GetInt64("budget-mb");
  struct Run {
    const char* label;
    int shards;
    int64_t budget;
  };
  const Run runs[] = {
      {"sharded", 1, 0},          {"sharded", 2, 0},
      {"sharded", 4, 0},          {"sharded", 8, 0},
      {"budgeted", 4, budget_mb},
  };
  for (const Run& run : runs) {
    ShardedScanOptions options;
    options.num_shards = run.shards;
    options.num_threads = threads;
    options.memory_budget_mb = run.budget;
    Stopwatch watch;
    auto result = RunShardedScan(engine, *groups, options);
    const double seconds = watch.Seconds();
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    const bool exact = result->results == baseline;
    const std::string label =
        run.budget > 0
            ? StrFormat("%s (%lld MiB)", run.label,
                        static_cast<long long>(run.budget))
            : std::string(run.label);
    table.AddRow({label, StrFormat("%d", run.shards),
                  StrFormat("%.3f", seconds),
                  StrFormat("%.2f",
                            baseline_s > 0 ? seconds / baseline_s : 0.0),
                  exact ? "yes" : "NO"});
    const std::string prefix =
        run.budget > 0 ? StrFormat("budget%lld_s%d_",
                                   static_cast<long long>(run.budget),
                                   run.shards)
                       : StrFormat("s%d_", run.shards);
    json.Add(prefix + "time_s", seconds);
    json.Add(prefix + "overhead", baseline_s > 0 ? seconds / baseline_s : 0.0);
    json.Add(prefix + "exact", static_cast<int64_t>(exact ? 1 : 0));
    if (!exact) {
      std::fprintf(stderr,
                   "error: %d-shard scan diverged from the unsharded "
                   "baseline\n",
                   run.shards);
      return 1;
    }
  }
  std::printf("%s", table.Render().c_str());
  json.Write();
  std::printf(
      "\nshards run sequentially through the same parallel kernel on one "
      "pool and one memo per scan; the overhead column is the price of "
      "planning and of one group loop per shard, and 'exact' confirms the "
      "merged output is byte-identical to the unsharded scan.\n");
  return 0;
}
