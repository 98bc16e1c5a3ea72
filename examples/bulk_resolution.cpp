// Whole-database resolution: scan every name, resolve each, report the
// splits — the "run DISTINCT over the catalog" deployment mode. Also
// demonstrates the train-once / reuse workflow via model serialization.
//
//   ./build/examples/bulk_resolution [--seed=42] [--min-refs=6]
//       [--threads=4] [--model=/tmp/distinct.model]

#include <cstdint>
#include <cstdio>

#include "common/flags.h"
#include "common/stopwatch.h"
#include "core/distinct.h"
#include "core/scan.h"
#include "dblp/generator.h"
#include "dblp/schema.h"
#include "sim/similarity_model_io.h"

int main(int argc, char** argv) {
  using namespace distinct;

  FlagParser flags;
  flags.AddInt64("seed", 42, "generator seed");
  flags.AddInt64("min-refs", 6, "resolve names with at least this many refs");
  flags.AddInt64("max-refs", 200, "skip names with more refs than this");
  flags.AddString("model", "", "optional path to save/reuse the model");
  flags.AddInt64("threads", 1, "worker threads for resolution (1 = sequential)");
  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.Help().c_str());
    return 1;
  }

  // Same bounds as distinct_cli's flags of the same names.
  auto threads = flags.GetIntInRange("threads", 1, 4096);
  auto min_refs = flags.GetInt64InRange("min-refs", 1, INT64_MAX);
  auto max_refs = flags.GetInt64InRange("max-refs", 0, INT64_MAX);
  for (const Status& s : {threads.status(), min_refs.status(),
                          max_refs.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }

  GeneratorConfig generator;
  generator.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  auto dataset = GenerateDblpDataset(generator);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }

  DistinctConfig config;
  config.promotions = DblpDefaultPromotions();
  // The engine-level kernel pool parallelizes training features and any
  // direct ResolveName calls; the bulk scan below builds its own pool and
  // nests group and tile parallelism inside it.
  config.num_threads = *threads;

  // Train-once / reuse: load a saved model when present, else train and
  // save one.
  const std::string model_path = flags.GetString("model");
  StatusOr<Distinct> engine = NotFoundError("unset");
  if (!model_path.empty()) {
    if (auto model = LoadSimilarityModel(model_path); model.ok()) {
      std::printf("reusing model from %s\n", model_path.c_str());
      engine = Distinct::CreateWithModel(dataset->db, DblpReferenceSpec(),
                                         config, *std::move(model));
    }
  }
  if (!engine.ok()) {
    engine = Distinct::Create(dataset->db, DblpReferenceSpec(), config);
    if (engine.ok() && !model_path.empty()) {
      if (Status s = SaveSimilarityModel(engine->model(), model_path);
          s.ok()) {
        std::printf("trained and saved model to %s\n", model_path.c_str());
      }
    }
  }
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }

  ScanOptions scan;
  scan.min_refs = *min_refs;
  scan.max_refs = *max_refs;
  auto groups = ScanNameGroups(*engine, scan);
  if (!groups.ok()) {
    std::fprintf(stderr, "%s\n", groups.status().ToString().c_str());
    return 1;
  }
  std::printf("scanning found %zu candidate names (>= %lld refs)\n",
              groups->size(), static_cast<long long>(scan.min_refs));

  std::vector<BulkResolution> results;
  auto stats = ResolveAllNamesParallel(*engine, *groups,
                                       engine->config().num_threads, &results);
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "resolved %lld names (%lld refs) in %.2fs; %lld names split into "
      "%lld clusters total\n\n",
      static_cast<long long>(stats->names_resolved),
      static_cast<long long>(stats->total_refs), stats->seconds,
      static_cast<long long>(stats->names_split),
      static_cast<long long>(stats->total_clusters));

  std::printf("largest splits:\n");
  int shown = 0;
  for (const BulkResolution& r : results) {
    if (r.clustering.num_clusters <= 1) {
      continue;
    }
    std::printf("  %-28s %3zu refs -> %d people\n", r.name.c_str(),
                r.num_refs, r.clustering.num_clusters);
    if (++shown >= 12) {
      break;
    }
  }
  if (shown == 0) {
    std::printf("  (none)\n");
  }
  return 0;
}
