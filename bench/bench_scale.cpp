// E10 — scalability: offline-phase and whole-database resolution cost as
// the database grows. The paper reports a single 62.1 s offline figure on
// full DBLP; this shows how the phases scale with database size so that
// figure can be extrapolated.

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/text_table.h"
#include "core/scan.h"
#include "dblp/schema.h"
#include "dblp/stats.h"

int main(int argc, char** argv) {
  using namespace distinct;
  using namespace distinct::bench;

  FlagParser flags;
  flags.AddInt64("seed", static_cast<int64_t>(kDefaultSeed),
                 "generator seed");
  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.Help().c_str());
    return 1;
  }

  PrintBanner("bench_scale",
              "the Section 5 cost figures (scaling behaviour)");

  TextTable table({"communities", "refs", "offline (s)",
                   "names>=4 refs", "bulk resolve (s)", "refs/s"});
  for (size_t c = 0; c <= 5; ++c) {
    table.SetRightAlign(c);
  }

  BenchJson json("scale");
  json.Add("seed", flags.GetInt64("seed"));

  for (const int communities : {10, 20, 40, 80}) {
    GeneratorConfig generator = StandardGeneratorConfig(
        static_cast<uint64_t>(flags.GetInt64("seed")));
    generator.num_communities = communities;
    DblpDataset dataset = MustGenerate(generator);
    auto stats = ComputeDblpStats(dataset.db);

    // Scale the training-set size with the database (the small worlds
    // cannot supply the paper's 1000+1000 pairs).
    DistinctConfig config = StandardDistinctConfig();
    config.training.num_positive =
        std::min(1000, communities * 20);
    config.training.num_negative = config.training.num_positive;

    Stopwatch offline;
    Distinct engine = MustCreate(dataset.db, config);
    const double seconds_offline = offline.Seconds();

    ScanOptions scan;
    scan.min_refs = 4;
    scan.max_refs = 200;
    auto groups = ScanNameGroups(engine, scan);
    if (!groups.ok()) {
      std::fprintf(stderr, "%s\n", groups.status().ToString().c_str());
      return 1;
    }

    Stopwatch bulk;
    auto bulk_stats = ResolveAllNamesParallel(engine, *groups,
                                              engine.config().num_threads);
    if (!bulk_stats.ok()) {
      std::fprintf(stderr, "%s\n", bulk_stats.status().ToString().c_str());
      return 1;
    }
    const double seconds_bulk = bulk.Seconds();

    table.AddRow(
        {StrFormat("%d", communities),
         StrFormat("%lld", static_cast<long long>(stats->num_references)),
         StrFormat("%.2f", seconds_offline),
         StrFormat("%lld", static_cast<long long>(bulk_stats->names_resolved)),
         StrFormat("%.2f", seconds_bulk),
         StrFormat("%.0f", seconds_bulk > 0
                               ? static_cast<double>(bulk_stats->total_refs) /
                                     seconds_bulk
                               : 0.0)});
    const std::string prefix = StrFormat("c%d_", communities);
    json.Add(prefix + "refs", static_cast<int64_t>(stats->num_references));
    json.Add(prefix + "offline_s", seconds_offline);
    json.Add(prefix + "names_resolved",
             static_cast<int64_t>(bulk_stats->names_resolved));
    json.Add(prefix + "bulk_s", seconds_bulk);
    json.Add(prefix + "refs_per_s",
             seconds_bulk > 0
                 ? static_cast<double>(bulk_stats->total_refs) / seconds_bulk
                 : 0.0);
  }
  std::printf("%s", table.Render().c_str());
  json.Write();
  std::printf(
      "\npaper context: 62.1 s offline on ~1.29M references (2005-era "
      "hardware); the offline phase here scales roughly linearly in "
      "database size.\n");
  return 0;
}
