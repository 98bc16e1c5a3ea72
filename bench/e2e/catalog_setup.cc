// Set-up shared by the catalog-scale workloads (offline_1m, serve_1m):
// the seeded synthetic dblp.xml on disk is the input; ingest, open,
// materialize and Create are the set-up being timed.

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>

#include "catalog/ingest.h"
#include "catalog/reader.h"
#include "dblp/schema.h"
#include "dblp/xml_corpus.h"
#include "obs/memory.h"
#include "workloads.h"

namespace distinct {
namespace e2e {

namespace {

/// References in the catalog workloads' corpus: DBLP scale (the paper's
/// snapshot has 1.29M). The smoke run uses the CI-sized corpus.
constexpr int64_t kCatalogRefs = 1'000'000;
constexpr int64_t kSmokeCatalogRefs = 100'000;
/// Set-ups per run. One takes 6-7 s of wall time (ingest fsyncs every
/// segment), which is as much as the benchmark's time budget spares; its
/// CPU time is steady, because ingest and materialize run on one thread.
constexpr int kCatalogSetups = 2;
/// Names with more references are left out of catalog scans.
constexpr int64_t kCatalogMaxRefs = 1000;

double Mb(int64_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

/// Writes the run's corpus; returns its reference count.
int64_t WriteCorpus(const RunOptions& options, const std::string& xml_path) {
  XmlCorpusConfig corpus;
  corpus.seed = options.seed;
  corpus.target_refs = options.smoke ? kSmokeCatalogRefs : kCatalogRefs;
  const XmlCorpusStats stats = ValueOrDie(
      WriteSyntheticDblpXml(xml_path, corpus), "corpus generation");
  return stats.refs;
}

/// One timed set-up: ingest `xml_path` into `catalog_dir`, open,
/// materialize, Create.
CatalogEngine BuildCatalogEngine(const RunOptions& options,
                                 const std::string& xml_path,
                                 const std::string& catalog_dir) {
  CatalogEngine built;
  Stopwatch watch;
  const catalog::IngestStats ingest = [&] {
    DISTINCT_TRACE_SPAN("catalog.ingest");
    return ValueOrDie(catalog::IngestDblpXml(xml_path, catalog_dir),
                      "ingest");
  }();
  built.ingest_s = watch.Seconds();
  built.ingest_mb_per_s = Mb(ingest.bytes_read) / built.ingest_s;

  watch.Reset();
  const std::unique_ptr<catalog::CatalogReader> reader = [&] {
    DISTINCT_TRACE_SPAN("catalog.open");
    return ValueOrDie(catalog::CatalogReader::Open(catalog_dir),
                      "catalog open");
  }();
  built.open_s = watch.Seconds();

  watch.Reset();
  {
    DISTINCT_TRACE_SPAN("catalog.materialize");
    XmlLoadResult loaded =
        ValueOrDie(reader->MaterializeDatabase(), "materialize");
    built.db = std::make_unique<Database>(std::move(loaded.db));
  }
  built.materialize_s = watch.Seconds();
  built.rss_after_materialize_mb = Mb(obs::ReadRssBytes());

  // Unsupervised: the Zipf corpus has no rare names to train on (README,
  // known limits).
  DistinctConfig config = EngineConfig(options, /*supervised=*/false);
  config.base_catalog_version = reader->generation();
  watch.Reset();
  {
    DISTINCT_TRACE_SPAN("core.create");
    built.engine = std::make_unique<Distinct>(ValueOrDie(
        Distinct::Create(*built.db, DblpReferenceSpec(), config), "create"));
  }
  built.create_s = watch.Seconds();
  return built;
}

}  // namespace

std::vector<NameGroup> CatalogScanGroups(const Distinct& engine) {
  ScanOptions filter;
  filter.min_refs = 2;
  filter.max_refs = kCatalogMaxRefs;
  return ValueOrDie(ScanNameGroups(engine, filter), "scan name groups");
}

std::vector<NameGroup> CatalogSweepSample(
    const std::vector<NameGroup>& groups) {
  return EveryNth(groups, 1024, 256);
}

CatalogEngine SetUpCatalog(const RunOptions& options, Report& report,
                           std::vector<obs::SpanRecord>* create_spans) {
  const std::string xml_path = options.work_dir + "/corpus.xml";
  report.Fact("corpus_refs", WriteCorpus(options, xml_path));
  report.Fact("corpus_xml_mb",
              static_cast<int64_t>(
                  Mb(static_cast<int64_t>(std::filesystem::file_size(xml_path)))));

  if (options.trace) {
    StartTracing();
  }
  int index = 0;
  CatalogEngine built = RepeatSetup<CatalogEngine>(
      options, kCatalogSetups, report, [&] {
    return BuildCatalogEngine(
        options, xml_path,
        options.work_dir + "/catalog" + std::to_string(index++));
  });
  *create_spans = obs::Tracer::Global().Snapshot();

  report.Add(MetricKind::kExtra, "catalog.ingest_s", built.ingest_s, "s");
  report.Add(MetricKind::kExtra, "catalog.ingest_mb_per_s",
             built.ingest_mb_per_s, "MB/s");
  report.Add(MetricKind::kExtra, "catalog.open_s", built.open_s, "s");
  report.Add(MetricKind::kExtra, "catalog.materialize_s", built.materialize_s,
             "s");
  report.Add(MetricKind::kExtra, "catalog.rss_mb",
             built.rss_after_materialize_mb, "MB");
  report.Add(MetricKind::kExtra, "setup.create_s", built.create_s, "s");
  return built;
}

}  // namespace e2e
}  // namespace distinct
