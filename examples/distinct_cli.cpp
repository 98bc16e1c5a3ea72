// distinct_cli — the library as a command-line tool.
//
//   distinct_cli generate --dir=DATA [--seed=42]        write a dataset
//   distinct_cli generate-xml --out=FILE --rows=100000  write a dblp.xml
//   distinct_cli ingest   --xml=FILE --catalog=DIR      stream to catalog
//   distinct_cli train    --dir=DATA --model=FILE       fit + save weights
//   distinct_cli resolve  --dir=DATA --name="Wei Wang" [--model=FILE]
//   distinct_cli scan     --dir=DATA [--min-refs=6] [--threads=2]
//   distinct_cli append   --dir=DATA --delta=DIR [--verify]
//   distinct_cli eval     --dir=DATA [--model=FILE]     score vs cases.csv
//   distinct_cli serve    --dir=DATA [--port=0] [--deadline-ms=N]
//
// DATA holds the five DBLP CSVs plus cases.csv (see dblp/dataset_io.h);
// `generate` creates it, or bring your own files in the same format.
// `append` ingests extra rows (per-table CSVs in --delta, same headers)
// without rebuilding: the catalog re-resolves only the names the delta
// dirtied and reuses every other cached resolution.
//
// `ingest` streams a dblp.xml-shaped file (real dump or `generate-xml`
// output) into an mmap-able columnar catalog directory without ever
// materialising the document; train/resolve/scan/append/serve then accept
// --catalog=DIR in place of --dir, loading the database from the catalog
// and stamping its generation into checkpoints so --resume refuses state
// taken against a different ingest.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/ingest.h"
#include "catalog/reader.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/text_table.h"
#include "core/delta.h"
#include "core/distinct.h"
#include "core/evaluation.h"
#include "core/scan.h"
#include "core/scan_shard.h"
#include "dblp/dataset_io.h"
#include "dblp/schema.h"
#include "dblp/stats.h"
#include "dblp/xml_corpus.h"
#include "dblp/xml_loader.h"
#include "obs/heartbeat.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "serve/server.h"
#include "serve/service.h"
#include "sim/similarity_model_io.h"

namespace {

using namespace distinct;

int Fail(const Status& status) {
  DISTINCT_LOG(ERROR) << status.ToString();
  return 1;
}

/// Tables attached to the run report by subcommands (the scan's shard
/// table); collected by main() after the command finishes.
std::vector<obs::ReportTable> g_report_tables;

/// --trace-json was requested; subcommands that shard turn on per-shard
/// trace fragments when this is set.
bool g_want_trace = false;

/// Where the sharded scan wrote trace fragments (and for how many shards);
/// set by RunScan so main() can merge them into the exported trace.
std::string g_trace_fragment_dir;
int g_trace_fragment_shards = 0;

/// Progress counters the scan publishes for the heartbeat reporter.
obs::ProgressState g_progress;

/// The driver timeline for a fragment-merged trace: every recorded span
/// except strict descendants of "scan_shard" spans — those live in their
/// shard's fragment (pid shard+1). The scan_shard marker itself stays in
/// the driver row as the shard boundary.
std::vector<obs::SpanRecord> DriverSpans(
    const std::vector<obs::SpanRecord>& spans) {
  std::vector<int> remap(spans.size(), -1);
  std::vector<char> dropped(spans.size(), 0);
  std::vector<obs::SpanRecord> out;
  out.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& span = spans[i];
    if (span.parent >= 0) {
      const auto p = static_cast<size_t>(span.parent);
      if (dropped[p] != 0 || spans[p].name == "scan_shard") {
        dropped[i] = 1;
        continue;
      }
    }
    remap[i] = static_cast<int>(out.size());
    obs::SpanRecord copy = span;
    copy.parent = span.parent >= 0 ? remap[static_cast<size_t>(span.parent)]
                                   : -1;
    out.push_back(std::move(copy));
  }
  return out;
}

/// Exports the span tree as Chrome-trace JSON, merging per-shard fragments
/// when the scan wrote them.
Status ExportTrace(const std::string& path) {
  const std::vector<obs::SpanRecord> spans = obs::Tracer::Global().Snapshot();
  std::vector<obs::TraceProcess> processes;
  if (!g_trace_fragment_dir.empty()) {
    auto merged = obs::CollectShardedTrace(
        DriverSpans(spans), g_trace_fragment_dir, g_trace_fragment_shards);
    DISTINCT_RETURN_IF_ERROR(merged.status());
    processes = *std::move(merged);
  } else {
    obs::TraceProcess driver;
    driver.pid = 0;
    driver.name = "driver";
    driver.spans = spans;
    processes.push_back(std::move(driver));
  }
  return obs::WriteChromeTrace(path, processes);
}

/// The database a command runs over, plus where it came from. When
/// --catalog is set the database is materialised from the mmap'd columnar
/// catalog and `catalog_generation` carries the ingest generation to stamp
/// into the engine (checkpoint/resume compatibility); otherwise the CSVs
/// in --dir are loaded and the generation stays 0.
struct CliDatabase {
  Database db;
  int64_t catalog_generation = 0;
};

StatusOr<CliDatabase> LoadCliDatabase(const FlagParser& flags) {
  CliDatabase loaded;
  const std::string catalog_dir = flags.GetString("catalog");
  if (!catalog_dir.empty()) {
    auto reader = catalog::CatalogReader::Open(catalog_dir);
    DISTINCT_RETURN_IF_ERROR(reader.status());
    XmlLoadOptions options;
    auto min_refs = flags.GetIntInRange("min-refs-per-author", 0, 1 << 30);
    DISTINCT_RETURN_IF_ERROR(min_refs.status());
    options.min_refs_per_author = *min_refs;
    auto result = (*reader)->MaterializeDatabase(options);
    DISTINCT_RETURN_IF_ERROR(result.status());
    DISTINCT_LOG(INFO) << "catalog " << catalog_dir << ": generation "
                       << (*reader)->generation() << ", "
                       << result->records_loaded << " records, "
                       << ((*reader)->mapped_bytes() >> 20) << " MiB mapped";
    loaded.db = std::move(result->db);
    loaded.catalog_generation = (*reader)->generation();
    return loaded;
  }
  auto db = LoadDblpDatabaseCsv(flags.GetString("dir"));
  DISTINCT_RETURN_IF_ERROR(db.status());
  loaded.db = *std::move(db);
  return loaded;
}

/// The engine configuration every command builds from the common flags.
StatusOr<DistinctConfig> EngineConfigFromFlags(const FlagParser& flags,
                                               int64_t catalog_generation) {
  DistinctConfig config;
  config.promotions = DblpDefaultPromotions();
  config.base_catalog_version = catalog_generation;
  auto min_sim = flags.GetDoubleInRange("min-sim", 0.0, 1e9);
  if (!min_sim.ok()) return min_sim.status();
  config.min_sim = *min_sim;
  config.auto_min_sim = flags.GetBool("auto-min-sim");
  auto threads = flags.GetIntInRange("threads", 1, 4096);
  if (!threads.ok()) return threads.status();
  config.num_threads = *threads;
  auto cache_mb = flags.GetInt64InRange("prop-cache-mb", 0, 1 << 20);
  if (!cache_mb.ok()) return cache_mb.status();
  config.propagation.cache_bytes = static_cast<size_t>(*cache_mb) << 20;
  config.supervised = !flags.GetBool("unsupervised");
  config.observability = obs::Enabled();
  const std::string stopping = flags.GetString("stopping");
  if (stopping == "largest-gap" || stopping == "gap") {
    config.stopping = StoppingRule::kLargestGap;
  } else if (stopping != "fixed") {
    return InvalidArgumentError(
        "--stopping must be 'fixed' or 'largest-gap', got '" + stopping +
        "'");
  }
  return config;
}

/// --scan-memory-mb, the budget of ingest, scan and serve; the cap keeps
/// the budget in bytes (mb << 20) inside int64.
StatusOr<int64_t> ScanMemoryMb(const FlagParser& flags) {
  return flags.GetInt64InRange("scan-memory-mb", 0, int64_t{1} << 40);
}

/// --min-refs/--max-refs as the scan filters of scan and append; int64
/// end to end, so a bound beyond INT_MAX compares exactly instead of being
/// narrowed.
StatusOr<ScanOptions> ScanOptionsFromFlags(const FlagParser& flags) {
  ScanOptions scan;
  auto min_refs = flags.GetInt64InRange("min-refs", 1, INT64_MAX);
  DISTINCT_RETURN_IF_ERROR(min_refs.status());
  scan.min_refs = *min_refs;
  auto max_refs = flags.GetInt64InRange("max-refs", 0, INT64_MAX);
  DISTINCT_RETURN_IF_ERROR(max_refs.status());
  scan.max_refs = *max_refs;
  return scan;
}

StatusOr<Distinct> MakeEngine(const Database& db, const FlagParser& flags,
                              int64_t catalog_generation = 0) {
  auto config = EngineConfigFromFlags(flags, catalog_generation);
  if (!config.ok()) return config.status();
  const std::string model_path = flags.GetString("model");
  if (!model_path.empty()) {
    auto model = LoadSimilarityModel(model_path);
    if (model.ok()) {
      DISTINCT_LOG(INFO) << "using model " << model_path;
      return Distinct::CreateWithModel(db, DblpReferenceSpec(), *config,
                                       *std::move(model));
    }
    DISTINCT_LOG(WARN) << model.status().ToString()
                       << " — training instead";
  }
  return Distinct::Create(db, DblpReferenceSpec(), *config);
}

int RunGenerate(const FlagParser& flags) {
  GeneratorConfig config;
  auto seed = flags.GetInt64InRange("seed", 0, INT64_MAX);
  if (!seed.ok()) return Fail(seed.status());
  config.seed = static_cast<uint64_t>(*seed);
  auto dataset = GenerateDblpDataset(config);
  if (!dataset.ok()) return Fail(dataset.status());
  const std::string dir = flags.GetString("dir");
  std::filesystem::create_directories(dir);
  if (Status s = SaveDataset(*dataset, dir); !s.ok()) return Fail(s);
  auto stats = ComputeDblpStats(dataset->db);
  std::printf("wrote %s: %s\n", dir.c_str(),
              stats.ok() ? stats->DebugString().c_str() : "");
  return 0;
}

int RunGenerateXml(const FlagParser& flags) {
  const std::string out = flags.GetString("out");
  if (out.empty()) {
    std::fprintf(stderr, "error: generate-xml needs --out=FILE\n");
    return 1;
  }
  XmlCorpusConfig config;
  auto seed = flags.GetInt64InRange("seed", 0, INT64_MAX);
  if (!seed.ok()) return Fail(seed.status());
  config.seed = static_cast<uint64_t>(*seed);
  auto rows = flags.GetInt64InRange("rows", 1, INT64_MAX);
  if (!rows.ok()) return Fail(rows.status());
  config.target_refs = *rows;
  Stopwatch watch;
  auto stats = WriteSyntheticDblpXml(out, config);
  if (!stats.ok()) return Fail(stats.status());
  std::printf("wrote %s: %lld papers, %lld references, %.1f MiB in %.2fs\n",
              out.c_str(), static_cast<long long>(stats->papers),
              static_cast<long long>(stats->refs),
              static_cast<double>(stats->bytes) / (1 << 20), watch.Seconds());
  return 0;
}

int RunIngest(const FlagParser& flags) {
  const std::string xml = flags.GetString("xml");
  const std::string catalog_dir = flags.GetString("catalog");
  if (xml.empty() || catalog_dir.empty()) {
    std::fprintf(stderr, "error: ingest needs --xml=FILE and --catalog=DIR\n");
    return 1;
  }
  catalog::IngestOptions options;
  auto segment_papers =
      flags.GetInt64InRange("segment-papers", 1, int64_t{1} << 31);
  if (!segment_papers.ok()) return Fail(segment_papers.status());
  options.segment_papers = *segment_papers;
  auto budget = ScanMemoryMb(flags);
  if (!budget.ok()) return Fail(budget.status());
  options.memory_budget_mb = *budget;
  Stopwatch watch;
  auto stats = catalog::IngestDblpXml(xml, catalog_dir, options);
  if (!stats.ok()) return Fail(stats.status());
  const double seconds = watch.Seconds();
  const double mb = static_cast<double>(stats->bytes_read) / (1 << 20);
  std::printf(
      "ingested %s -> %s: %lld records (%lld skipped), %lld refs\n",
      xml.c_str(), catalog_dir.c_str(),
      static_cast<long long>(stats->records),
      static_cast<long long>(stats->skipped),
      static_cast<long long>(stats->summary.num_refs));
  std::printf(
      "  %.1f MiB in %.2fs (%.1f MiB/s); %lld segments, dicts "
      "%lld authors / %lld venues / %lld titles; generation %lld\n",
      mb, seconds, seconds > 0 ? mb / seconds : 0.0,
      static_cast<long long>(stats->summary.num_segments),
      static_cast<long long>(stats->summary.num_authors),
      static_cast<long long>(stats->summary.num_venues),
      static_cast<long long>(stats->summary.num_titles),
      static_cast<long long>(stats->summary.generation));
  return 0;
}

int RunTrain(const FlagParser& flags) {
  auto db = LoadCliDatabase(flags);
  if (!db.ok()) return Fail(db.status());
  auto config = EngineConfigFromFlags(flags, db->catalog_generation);
  if (!config.ok()) return Fail(config.status());
  config->supervised = true;  // train always trains
  auto engine = Distinct::Create(db->db, DblpReferenceSpec(), *config);
  if (!engine.ok()) return Fail(engine.status());
  const TrainingReport& report = engine->report();
  std::printf("trained on %zu pairs, %d paths, %.2fs\n",
              report.num_training_pairs, report.num_paths,
              report.seconds_total);
  const std::string model_path = flags.GetString("model");
  if (model_path.empty()) {
    std::fprintf(stderr, "error: train needs --model=FILE to save into\n");
    return 1;
  }
  if (Status s = SaveSimilarityModel(engine->model(), model_path); !s.ok()) {
    return Fail(s);
  }
  std::printf("saved model to %s\n", model_path.c_str());
  return 0;
}

int RunResolve(const FlagParser& flags) {
  auto db = LoadCliDatabase(flags);
  if (!db.ok()) return Fail(db.status());
  auto engine = MakeEngine(db->db, flags, db->catalog_generation);
  if (!engine.ok()) return Fail(engine.status());
  const std::string name = flags.GetString("name");
  auto result = engine->ResolveName(name);
  if (!result.ok()) return Fail(result.status());
  std::printf("'%s': %zu references -> %d people\n", name.c_str(),
              result->refs.size(), result->clustering.num_clusters);
  for (size_t i = 0; i < result->refs.size(); ++i) {
    std::printf("  publish row %d -> person %d\n", result->refs[i],
                result->clustering.assignment[i]);
  }
  return 0;
}

/// One row per planned shard, attached to the run report (--report /
/// --metrics-json).
obs::ReportTable ShardTable(const std::vector<ShardOutcome>& shards) {
  obs::ReportTable table;
  table.title = "shards";
  table.header = {"shard",   "state",   "groups", "refs",
                  "pairs",   "threads", "sec",    "error"};
  for (const ShardOutcome& shard : shards) {
    table.rows.push_back(
        {StrFormat("%d", shard.shard_id), ShardStateName(shard.state),
         StrFormat("%lld", static_cast<long long>(shard.num_groups)),
         StrFormat("%lld", static_cast<long long>(shard.num_refs)),
         StrFormat("%lld", static_cast<long long>(shard.estimated_pairs)),
         StrFormat("%d", shard.threads_used),
         StrFormat("%.3f", shard.seconds), shard.error});
  }
  return table;
}

int RunScan(const FlagParser& flags) {
  auto scan = ScanOptionsFromFlags(flags);
  if (!scan.ok()) return Fail(scan.status());
  auto db = LoadCliDatabase(flags);
  if (!db.ok()) return Fail(db.status());
  auto engine = MakeEngine(db->db, flags, db->catalog_generation);
  if (!engine.ok()) return Fail(engine.status());
  // Served from the engine's name index; no second pass over the tables.
  auto groups = ScanNameGroups(*engine, *scan);
  if (!groups.ok()) return Fail(groups.status());

  ShardedScanOptions options;
  auto shards = flags.GetIntInRange("shards", 1, 1 << 20);
  if (!shards.ok()) return Fail(shards.status());
  options.num_shards = *shards;
  options.num_threads = engine->config().num_threads;
  auto budget = ScanMemoryMb(flags);
  if (!budget.ok()) return Fail(budget.status());
  options.memory_budget_mb = *budget;
  options.checkpoint_dir = flags.GetString("checkpoint-dir");
  options.resume = flags.GetBool("resume");
  options.write_trace_fragments = g_want_trace;
  options.progress = &g_progress;
  if (g_want_trace && !options.checkpoint_dir.empty()) {
    g_trace_fragment_dir = options.checkpoint_dir;
    g_trace_fragment_shards = options.num_shards;
  }
  auto result = RunShardedScan(*engine, *groups, options);
  if (!result.ok()) return Fail(result.status());
  g_report_tables.push_back(ShardTable(result->shards));
  for (const ShardOutcome& shard : result->shards) {
    if (shard.state == ShardState::kFailed) {
      std::fprintf(stderr, "shard %d failed: %s\n", shard.shard_id,
                   shard.error.c_str());
    }
  }
  const BulkStats& stats = result->stats;
  std::printf("%lld names, %lld refs, %.2fs; %lld split\n",
              static_cast<long long>(stats.names_resolved),
              static_cast<long long>(stats.total_refs), stats.seconds,
              static_cast<long long>(stats.names_split));
  for (const BulkResolution& r : result->results) {
    if (r.clustering.num_clusters > 1) {
      std::printf("  %-28s %3zu refs -> %d people\n", r.name.c_str(),
                  r.num_refs, r.clustering.num_clusters);
    }
  }
  return 0;
}

int RunAppend(const FlagParser& flags) {
  auto scan = ScanOptionsFromFlags(flags);
  if (!scan.ok()) return Fail(scan.status());
  auto loaded = LoadCliDatabase(flags);
  if (!loaded.ok()) return Fail(loaded.status());
  Database* db = &loaded->db;
  const std::string delta_dir = flags.GetString("delta");
  if (delta_dir.empty()) {
    std::fprintf(stderr, "error: append needs --delta=DIR (per-table CSVs "
                         "of rows to append)\n");
    return 1;
  }
  auto engine = MakeEngine(*db, flags, loaded->catalog_generation);
  if (!engine.ok()) return Fail(engine.status());

  IncrementalCatalog catalog(*engine, *scan);
  if (Status s = catalog.Build(); !s.ok()) return Fail(s);
  const size_t names_before = catalog.resolutions().size();

  auto delta = LoadDatabaseDeltaCsv(*db, delta_dir);
  if (!delta.ok()) return Fail(delta.status());
  auto report = catalog.Apply(*db, *delta);
  if (!report.ok()) return Fail(report.status());

  std::printf(
      "appended %lld rows (%lld references): %zu dirty names, "
      "%lld resolutions reused, %lld re-resolved, %lld memo entries "
      "erased\n",
      static_cast<long long>(report->rows_appended),
      static_cast<long long>(report->new_refs), report->dirty_names.size(),
      static_cast<long long>(report->names_reused),
      static_cast<long long>(report->names_reresolved),
      static_cast<long long>(report->cache_entries_erased));
  std::printf("catalog: %zu -> %zu names, version %lld, watermark %lld\n",
              names_before, catalog.resolutions().size(),
              static_cast<long long>(report->catalog_version),
              static_cast<long long>(report->tuple_watermark));

  if (flags.GetBool("verify")) {
    // Differential: a fresh engine over the appended database with the
    // same model must land on exactly the same catalog.
    auto fresh = Distinct::CreateWithModel(*db, DblpReferenceSpec(),
                                           engine->config(), engine->model());
    if (!fresh.ok()) return Fail(fresh.status());
    IncrementalCatalog rebuilt(*fresh, *scan);
    if (Status s = rebuilt.Build(); !s.ok()) return Fail(s);
    // Exact equality: same names in the same order, same assignments,
    // the same merge sequence with equal similarities.
    if (catalog.resolutions() != rebuilt.resolutions()) {
      std::fprintf(stderr,
                   "verify FAILED: incremental catalog differs from batch "
                   "rebuild\n");
      return 1;
    }
    std::printf("verify OK: incremental catalog matches batch rebuild "
                "(%zu names)\n",
                catalog.resolutions().size());
  }
  return 0;
}

int RunServe(const FlagParser& flags) {
  // Block the shutdown signals before any thread exists: the service's
  // kernel pool and the server's connection threads inherit this mask, so
  // SIGTERM/SIGINT are only ever delivered to the sigwait below and a
  // drain cannot race a default-action termination on a worker thread.
  sigset_t shutdown_signals;
  sigemptyset(&shutdown_signals);
  sigaddset(&shutdown_signals, SIGINT);
  sigaddset(&shutdown_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &shutdown_signals, nullptr);

  auto db = LoadCliDatabase(flags);
  if (!db.ok()) return Fail(db.status());
  auto engine = MakeEngine(db->db, flags, db->catalog_generation);
  if (!engine.ok()) return Fail(engine.status());

  serve::ServiceOptions service_options;
  auto max_inflight = flags.GetIntInRange("max-inflight", 1, 1 << 20);
  if (!max_inflight.ok()) return Fail(max_inflight.status());
  service_options.max_inflight = *max_inflight;
  auto deadline_ms =
      flags.GetInt64InRange("deadline-ms", 0, serve::kMaxDeadlineMs);
  if (!deadline_ms.ok()) return Fail(deadline_ms.status());
  service_options.default_deadline_ms = *deadline_ms;
  auto result_cache = flags.GetInt64InRange("result-cache", 0, 1 << 24);
  if (!result_cache.ok()) return Fail(result_cache.status());
  service_options.result_cache_entries = static_cast<size_t>(*result_cache);
  // The same budget flag the sharded scan honours bounds admission here.
  auto budget = ScanMemoryMb(flags);
  if (!budget.ok()) return Fail(budget.status());
  service_options.memory_budget_mb = *budget;
  service_options.progress = &g_progress;
  serve::ServeService service(*engine, service_options);

  serve::ServerOptions server_options;
  server_options.host = flags.GetString("host");
  auto port = flags.GetInt64InRange("port", 0, 65535);
  if (!port.ok()) return Fail(port.status());
  server_options.port = static_cast<uint16_t>(*port);
  serve::ServeServer server(&service, server_options);
  if (Status s = server.Start(); !s.ok()) return Fail(s);

  // Scripts scrape this line for the (possibly ephemeral) port; flush so
  // it is visible before the first query arrives.
  std::printf("serving on %s:%u (threads=%d, max-inflight=%d, "
              "deadline-ms=%lld, budget-mb=%lld)\n",
              server_options.host.c_str(), server.port(),
              service.options().num_threads, service.options().max_inflight,
              static_cast<long long>(service.options().default_deadline_ms),
              static_cast<long long>(service.options().memory_budget_mb));
  std::fflush(stdout);

  int sig = 0;
  sigwait(&shutdown_signals, &sig);
  DISTINCT_LOG(INFO) << "received "
                     << (sig == SIGTERM ? "SIGTERM" : "SIGINT")
                     << ", draining";
  server.Shutdown();
  const serve::ServiceStats stats = service.stats();
  std::printf("served %lld queries (%lld answered, %lld batched, %lld "
              "cache hits, %lld rejected, %lld deadline-exceeded)\n",
              static_cast<long long>(stats.queries),
              static_cast<long long>(stats.answered),
              static_cast<long long>(stats.batched),
              static_cast<long long>(stats.cache_hits),
              static_cast<long long>(stats.rejected_inflight +
                                     stats.rejected_memory),
              static_cast<long long>(stats.deadline_exceeded));
  return 0;
}

int RunEval(const FlagParser& flags) {
  // The labels live in --dir's cases.csv; a catalog carries none, so
  // --catalog would otherwise be ignored and --dir scored instead.
  if (!flags.GetString("catalog").empty()) {
    return Fail(InvalidArgumentError(
        "eval scores the labeled names of --dir/cases.csv; an ingested "
        "catalog carries no labels, so --catalog is not accepted"));
  }
  auto dataset = LoadDataset(flags.GetString("dir"));
  if (!dataset.ok()) return Fail(dataset.status());
  auto engine = MakeEngine(dataset->db, flags);
  if (!engine.ok()) return Fail(engine.status());
  auto evaluations = EvaluateCases(*engine, dataset->cases);
  if (!evaluations.ok()) return Fail(evaluations.status());

  TextTable table({"name", "precision", "recall", "f-measure"});
  for (size_t c = 1; c <= 3; ++c) table.SetRightAlign(c);
  for (const CaseEvaluation& evaluation : *evaluations) {
    table.AddRow({evaluation.name,
                  StrFormat("%.3f", evaluation.scores.precision),
                  StrFormat("%.3f", evaluation.scores.recall),
                  StrFormat("%.3f", evaluation.scores.f1)});
  }
  const AggregateScores aggregate = Aggregate(*evaluations);
  table.AddRow({"average", StrFormat("%.3f", aggregate.precision),
                StrFormat("%.3f", aggregate.recall),
                StrFormat("%.3f", aggregate.f1)});
  std::printf("%s", table.Render().c_str());
  return 0;
}

/// One subcommand: its name on the command line, its runner and the line
/// Usage() prints for it.
struct Command {
  const char* name;
  int (*run)(const FlagParser&);
  const char* summary;
};

constexpr Command kCommands[] = {
    {"generate", RunGenerate, "write a generated dataset into --dir"},
    {"generate-xml", RunGenerateXml, "write a synthetic dblp.xml to --out"},
    {"ingest", RunIngest, "stream --xml into the columnar catalog --catalog"},
    {"train", RunTrain, "fit path weights and save them to --model"},
    {"resolve", RunResolve, "split the references of --name into people"},
    {"scan", RunScan, "resolve every name with --min-refs..--max-refs refs"},
    {"append", RunAppend, "ingest the rows in --delta without rebuilding"},
    {"eval", RunEval, "score the labeled names of --dir/cases.csv"},
    {"serve", RunServe, "answer name queries over TCP"},
};

/// The command list, then every flag with its default and help text.
void Usage(const FlagParser& flags) {
  std::string text = "usage: distinct_cli <command> [flags]\nCommands:\n";
  for (const Command& command : kCommands) {
    text += StrFormat("  %-13s %s\n", command.name, command.summary);
  }
  std::fprintf(stderr, "%s%s", text.c_str(), flags.Help().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("dir", "distinct_data", "dataset directory");
  flags.AddString("model", "", "similarity-model file");
  flags.AddString("name", "Wei Wang", "name to resolve");
  flags.AddInt64("seed", 42, "generator seed");
  flags.AddString("catalog", "",
                  "columnar catalog directory: output of `ingest`, input "
                  "(instead of --dir) for train/resolve/scan/append/serve");
  flags.AddString("xml", "", "ingest: source dblp.xml file");
  flags.AddString("out", "", "generate-xml: output file");
  flags.AddInt64("rows", 100000,
                 "generate-xml: stop after at least this many author "
                 "references");
  flags.AddInt64("segment-papers", 65536,
                 "ingest: papers per column segment file");
  flags.AddInt64("min-refs-per-author", 0,
                 "catalog load: drop authors with fewer references when "
                 "materialising the database (0 keeps everyone)");
  flags.AddInt64("min-refs", 6, "scan: minimum references per name");
  flags.AddInt64("max-refs", 500, "scan: maximum references per name");
  flags.AddInt64("threads", 1,
                 "worker threads (similarity kernel; scan: also names)");
  flags.AddInt64("prop-cache-mb", 64,
                 "propagation subtree-memo budget in MiB (0 disables "
                 "storage; results are unchanged either way)");
  flags.AddInt64("shards", 1,
                 "scan: partition the name groups into this many "
                 "deterministic shards (balanced by estimated pair count)");
  flags.AddInt64("scan-memory-mb", 0,
                 "memory budget in MiB (0 = unbounded) — scan: bounds the "
                 "scan's one subtree memo and concurrent workspaces; "
                 "serve: query admission; ingest: working set");
  flags.AddString("checkpoint-dir", "",
                  "scan: write per-shard checkpoints into this directory "
                  "(empty disables checkpointing)");
  flags.AddBool("resume", false,
                "scan: load complete shard checkpoints from "
                "--checkpoint-dir instead of re-resolving them");
  flags.AddString("delta", "",
                  "append: directory of per-table CSVs (same headers as "
                  "the dataset) holding the rows to ingest");
  flags.AddBool("verify", false,
                "append: rebuild from scratch afterwards and check the "
                "incremental catalog matches it exactly");
  flags.AddDouble("min-sim", 3e-2, "clustering merge threshold");
  flags.AddBool("auto-min-sim", false,
                "derive min-sim from the training pairs (ignores --min-sim)");
  flags.AddBool("unsupervised", false,
                "uniform path weights instead of SVM training (the paper's "
                "unsupervised baseline; works on corpora without enough "
                "rare names to train on)");
  flags.AddString("stopping", "fixed",
                  "merge stopping rule: fixed | largest-gap");
  flags.AddInt64("verbosity", 1,
                 "log verbosity: 0 = warnings/errors, 1 = +info, 2 = +debug");
  flags.AddBool("report", false,
                "print a per-stage metrics report after the command");
  flags.AddString("metrics-json", "",
                  "write the structured run report as JSON to this file");
  flags.AddString("trace-json", "",
                  "write the span tree as Chrome-trace/Perfetto JSON to "
                  "this file (sharded scans with --checkpoint-dir merge "
                  "per-shard fragments, including resumed shards)");
  flags.AddString("heartbeat", "",
                  "scan: atomically rewrite this JSON heartbeat file every "
                  "--progress-interval seconds (progress, refs/s, ETA, RSS) "
                  "and print a progress line at verbosity >= 1");
  flags.AddDouble("progress-interval", 10.0,
                  "seconds between heartbeat samples");
  flags.AddInt64("port", 0,
                 "serve: TCP port to listen on (0 binds an ephemeral port, "
                 "printed on startup)");
  flags.AddString("host", "127.0.0.1",
                  "serve: bind address (loopback by default — the protocol "
                  "is unauthenticated plaintext)");
  flags.AddInt64("max-inflight", 64,
                 "serve: queries admitted concurrently; excess is rejected "
                 "as overloaded with a retry hint");
  flags.AddInt64("deadline-ms", 0,
                 "serve: default per-query deadline in ms (0 = none); a "
                 "request's own deadline_ms may tighten but not extend it");
  flags.AddInt64("result-cache", 4096,
                 "serve: completed answers kept for exact re-serving "
                 "(FIFO-evicted; 0 disables the cache)");

  const Command* command = nullptr;
  for (const Command& candidate : kCommands) {
    if (argc >= 2 && argv[1] == std::string(candidate.name)) {
      command = &candidate;
    }
  }
  if (command == nullptr) {
    Usage(flags);
    return 1;
  }

  if (Status s = flags.Parse(argc - 2, argv + 2); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.Help().c_str());
    return 1;
  }

  auto verbosity = flags.GetIntInRange("verbosity", 0, 2);
  if (!verbosity.ok()) {
    std::fprintf(stderr, "%s\n%s", verbosity.status().ToString().c_str(),
                 flags.Help().c_str());
    return 1;
  }
  SetLogVerbosity(*verbosity);
  const std::string metrics_json = flags.GetString("metrics-json");
  const std::string trace_json = flags.GetString("trace-json");
  g_want_trace = !trace_json.empty();
  const bool want_report = flags.GetBool("report") || !metrics_json.empty();
  if (want_report || g_want_trace) {
    obs::SetEnabled(true);
    obs::MetricsRegistry::Global().Reset();
    obs::Tracer::Global().Reset();
    obs::MemoryTracker::Global().Reset();
  }

  std::unique_ptr<obs::HeartbeatReporter> heartbeat;
  const std::string heartbeat_path = flags.GetString("heartbeat");
  if (!heartbeat_path.empty()) {
    auto interval =
        flags.GetDoubleInRange("progress-interval", 0.01, 86400.0);
    if (!interval.ok()) {
      std::fprintf(stderr, "%s\n%s", interval.status().ToString().c_str(),
                   flags.Help().c_str());
      return 1;
    }
    obs::HeartbeatReporter::Options beat;
    beat.file_path = heartbeat_path;
    beat.interval_seconds = *interval;
    beat.print_progress = *verbosity >= 1;
    beat.label = command->name;
    heartbeat = std::make_unique<obs::HeartbeatReporter>(beat, &g_progress);
  }

  const int exit_code = command->run(flags);

  if (heartbeat != nullptr) {
    // Terminal beat carries the run's outcome: a failed command ends the
    // heartbeat file on status "error", not on a beat that reads as a
    // live (or successful) run.
    heartbeat->StopWithStatus(exit_code == 0 ? "ok" : "error");
  }
  if (g_want_trace) {
    if (Status s = ExportTrace(trace_json); !s.ok()) {
      return Fail(s);
    }
    DISTINCT_LOG(INFO) << "wrote trace to " << trace_json;
  }
  if (want_report) {
    obs::RunReport run_report = obs::CollectRunReport(command->name);
    run_report.tables = std::move(g_report_tables);
    if (flags.GetBool("report")) {
      std::printf("%s", obs::RunReportToText(run_report).c_str());
    }
    if (!metrics_json.empty()) {
      if (Status s = obs::WriteRunReportJson(run_report, metrics_json);
          !s.ok()) {
        return Fail(s);
      }
      DISTINCT_LOG(INFO) << "wrote run report to " << metrics_json;
    }
  }
  return exit_code;
}
