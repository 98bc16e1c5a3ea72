// Incremental catalog maintenance vs full rebuild: appends a tail of the
// Publish table as a DatabaseDelta at several append fractions and
// measures catalog.Apply() (delta ingest + re-resolving only the dirtied
// names) against rebuilding the engine and re-resolving every name from
// scratch. The differential check is hard: any divergence between the
// incremental catalog and the batch rebuild fails the harness.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/text_table.h"
#include "core/delta.h"
#include "core/distinct.h"
#include "core/scan.h"
#include "dblp/schema.h"

int main(int argc, char** argv) {
  using namespace distinct;
  using namespace distinct::bench;

  FlagParser flags;
  flags.AddInt64("seed", static_cast<int64_t>(kDefaultSeed),
                 "generator seed");
  flags.AddInt64("threads", 4, "worker threads of each engine");
  flags.AddInt64("min-refs", 4, "scan filter: minimum references per name");
  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.Help().c_str());
    return 1;
  }

  PrintBanner("bench_incremental",
              "delta ingest vs full rebuild (implementation, not a paper "
              "figure)");

  const GeneratorConfig generator = StandardGeneratorConfig(
      static_cast<uint64_t>(flags.GetInt64("seed")));
  const DblpDataset dataset = MustGenerate(generator);
  const int64_t publish_rows =
      (**dataset.db.FindTable(kPublishTable)).num_rows();

  // Unsupervised: path-weight training is not what is being measured, and
  // uniform weights make the incremental and rebuilt engines trivially
  // share the same model.
  DistinctConfig config;
  config.supervised = false;
  config.promotions = DblpDefaultPromotions();
  config.num_threads = MustIntInRange(flags, "threads", 1, 4096);

  ScanOptions scan;
  scan.min_refs = flags.GetInt64("min-refs");

  std::printf("%lld Publish rows (references), %d threads, %u hardware "
              "threads\n\n",
              static_cast<long long>(publish_rows), config.num_threads,
              std::thread::hardware_concurrency());

  TextTable table({"append", "rows", "dirty", "reused", "apply (s)",
                   "rebuild (s)", "speedup", "exact"});
  for (size_t c = 1; c <= 7; ++c) table.SetRightAlign(c);

  BenchJson json("incremental");
  json.Add("seed", flags.GetInt64("seed"));
  json.Add("threads", static_cast<int64_t>(config.num_threads));
  json.Add("publish_rows", publish_rows);

  const double fractions[] = {0.002, 0.01, 0.05};
  for (const double fraction : fractions) {
    const int64_t tail = std::max<int64_t>(
        1, static_cast<int64_t>(fraction * static_cast<double>(publish_rows)));
    auto split = MakeTailDelta(dataset.db, kPublishTable, tail);
    if (!split.ok()) {
      std::fprintf(stderr, "%s\n", split.status().ToString().c_str());
      return 1;
    }
    Database db = std::move(split->first);

    // Warm start: an engine + resident catalog over the base corpus. Not
    // timed — it models the state a serving system already holds when the
    // delta arrives.
    auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
    if (!engine.ok()) {
      std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
      return 1;
    }
    IncrementalCatalog catalog(*engine, scan);
    if (Status s = catalog.Build(); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }

    Stopwatch apply_watch;
    auto report = catalog.Apply(db, split->second);
    const double apply_s = apply_watch.Seconds();
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }

    // The contender: rebuild everything over the (now appended) database.
    Stopwatch rebuild_watch;
    auto rebuilt_engine = Distinct::Create(db, DblpReferenceSpec(), config);
    if (!rebuilt_engine.ok()) {
      std::fprintf(stderr, "%s\n",
                   rebuilt_engine.status().ToString().c_str());
      return 1;
    }
    IncrementalCatalog rebuilt(*rebuilt_engine, scan);
    if (Status s = rebuilt.Build(); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    const double rebuild_s = rebuild_watch.Seconds();

    const bool exact =
        catalog.resolutions() == rebuilt.resolutions();
    const double speedup = apply_s > 0 ? rebuild_s / apply_s : 0.0;
    const std::string label = StrFormat("%.1f%%", fraction * 100.0);
    table.AddRow({label, StrFormat("%lld", static_cast<long long>(tail)),
                  StrFormat("%zu", report->dirty_names.size()),
                  StrFormat("%lld", static_cast<long long>(report->names_reused)),
                  StrFormat("%.3f", apply_s), StrFormat("%.3f", rebuild_s),
                  StrFormat("%.1fx", speedup), exact ? "yes" : "NO"});

    const std::string prefix =
        StrFormat("append_%lldpm_", static_cast<long long>(fraction * 1000));
    json.Add(prefix + "rows", tail);
    json.Add(prefix + "dirty_names",
             static_cast<int64_t>(report->dirty_names.size()));
    json.Add(prefix + "names_reused", report->names_reused);
    json.Add(prefix + "names_reresolved", report->names_reresolved);
    json.Add(prefix + "cache_entries_erased", report->cache_entries_erased);
    json.Add(prefix + "apply_s", apply_s);
    json.Add(prefix + "rebuild_s", rebuild_s);
    json.Add(prefix + "speedup", speedup);
    json.Add(prefix + "exact", static_cast<int64_t>(exact ? 1 : 0));

    if (!exact) {
      std::fprintf(stderr,
                   "error: incremental catalog diverged from the batch "
                   "rebuild at %s append\n",
                   label.c_str());
      return 1;
    }
  }

  std::printf("%s", table.Render().c_str());
  json.Write();
  std::printf(
      "\n'apply' is catalog.Apply(): delta validation, in-place link-graph "
      "extension, targeted memo invalidation, and re-resolving only the "
      "dirtied names; 'rebuild' recreates the engine and resolves every "
      "name. 'exact' confirms both catalogs are bit-identical.\n");
  return 0;
}
