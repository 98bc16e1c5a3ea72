// append_25k: the planted dataset arrives in two parts. The first part is
// the resident catalog (supervised Create + IncrementalCatalog::Build, the
// set-up); the held-back tail of Publish rows then arrives in small deltas,
// each followed by reads of the names it touched and of popular names.

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/delta.h"
#include "dblp/generator.h"
#include "dblp/schema.h"
#include "workloads.h"

namespace distinct {
namespace e2e {

namespace {

/// Publish rows held back from the resident catalog and appended in
/// deltas of kDeltaRows. Publish rows only point at Authors and
/// Publications rows, which stay whole in the base, so the deltas may
/// arrive in any order.
constexpr double kTailShare = 0.2;
constexpr size_t kDeltaRows = 13;
/// Reads after every delta: up to kDirtyReads of the names the delta
/// touched (their answers changed) plus Zipf picks over all names.
constexpr int kReadsPerDelta = 5;
constexpr int kDirtyReads = 2;
constexpr double kReadZipf = 0.9;
/// Datasets per run, each generated from its own seed drawn from the run's
/// seed, set up once (setup_s is the median over them) and given an equal
/// share of the measured phase. What a delta costs depends on which names
/// the tail touches — the generator writes the planted ambiguous names'
/// papers last — and that differs more between datasets than between runs
/// on one dataset, so spreading a run over several datasets is what keeps
/// cpu_ms_per_op steady from seed to seed.
constexpr int kDatasets = 4;

struct AppendState {
  std::unique_ptr<Distinct> engine;
  std::unique_ptr<IncrementalCatalog> catalog;  // points at *engine
};

/// What the delta cycles of every dataset of a run did.
struct Cycles {
  std::vector<double> cpu_ms;
  std::vector<double> wall_ms;
  std::vector<double> apply_ms;
  std::vector<double> read_ms;
  int64_t rows = 0;
  int64_t dirty_names = 0;
  int64_t reused = 0;
  int64_t reresolved = 0;
  int64_t memo_erased = 0;
};

std::vector<DatabaseDelta> SplitDelta(const DatabaseDelta& delta) {
  std::vector<DatabaseDelta> deltas;
  for (const DatabaseDelta::TableRows& table : delta.tables()) {
    for (size_t r = 0; r < table.rows.size(); ++r) {
      if (r % kDeltaRows == 0) {
        deltas.emplace_back();
      }
      deltas.back().Add(table.table, table.rows[r]);
    }
  }
  return deltas;
}

/// Generates the dataset of `seed`, sets it up (into `setup`), runs delta
/// cycles for `seconds` (into `cycles`) and checks what they produced.
/// Returns the dataset's Publish row count. A traced run ends here, while
/// the dataset's engine is alive.
int64_t RunDataset(const RunOptions& options, uint64_t seed, double seconds,
                   SetupTimes& setup, Cycles& cycles, Report& report) {
  GeneratorConfig generator;
  generator.seed = seed;
  const DblpDataset dataset =
      ValueOrDie(GenerateDblpDataset(generator), "dataset generation");
  const int64_t publish_rows =
      (**dataset.db.FindTable(kPublishTable)).num_rows();
  auto split = ValueOrDie(
      MakeTailDelta(dataset.db, kPublishTable,
                    static_cast<int64_t>(kTailShare *
                                         static_cast<double>(publish_rows))),
      "tail delta");
  Database db = std::move(split.first);
  // Deltas arrive in SpreadOrder over the tail, so the ones a run gets to
  // cover every community the tail holds, not just the first few.
  const std::vector<DatabaseDelta> chunks = SplitDelta(split.second);
  std::vector<DatabaseDelta> deltas;
  for (const size_t index : SpreadOrder(chunks.size())) {
    deltas.push_back(chunks[index]);
  }

  LayerInputs layers;
  if (options.trace) {
    StartTracing();
  }
  ScanOptions filter;
  filter.min_refs = 2;
  ReleaseFreedMemory();
  const OpTimer setup_timer;
  AppendState state;
  {
    DISTINCT_TRACE_SPAN("core.create");
    state.engine = std::make_unique<Distinct>(ValueOrDie(
        Distinct::Create(db, DblpReferenceSpec(),
                         EngineConfig(options, /*supervised=*/true)),
        "create"));
  }
  {
    DISTINCT_TRACE_SPAN("delta.build");
    state.catalog = std::make_unique<IncrementalCatalog>(*state.engine, filter);
    DieIfError(state.catalog->Build(), "catalog build");
  }
  setup.Add(setup_timer);
  layers.create_spans = obs::Tracer::Global().Snapshot();
  Distinct& engine = *state.engine;
  IncrementalCatalog& catalog = *state.catalog;

  // Zipf rank r reads read_pool[r]: names sorted by size, in SpreadOrder.
  std::vector<std::pair<size_t, std::string>> by_size;
  for (const auto& [name, refs] : engine.name_groups()) {
    if (static_cast<int64_t>(refs.size()) >= filter.min_refs) {
      by_size.emplace_back(refs.size(), name);
    }
  }
  std::stable_sort(by_size.begin(), by_size.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> read_pool;
  for (const size_t index : SpreadOrder(by_size.size())) {
    read_pool.push_back(by_size[index].second);
  }
  Rng rng(seed);
  const ZipfSampler zipf(read_pool.size(), kReadZipf);

  // Measured phase: apply a delta, then read; the cycle is the time until
  // the appended evidence is visible through reads of the names it moved.
  layers.measured_before = obs::MetricsRegistry::Global().Snapshot();
  int64_t read_mismatches = 0;
  const Stopwatch phase;
  {
    DISTINCT_TRACE_SPAN("delta.cycles");
    for (size_t d = 0;
         d < deltas.size() && (d == 0 || phase.Seconds() < seconds); ++d) {
      const OpTimer cycle;
      auto applied = [&] {
        DISTINCT_TRACE_SPAN("delta.apply");
        return catalog.Apply(db, deltas[d]);
      }();
      cycles.apply_ms.push_back(cycle.WallMs());
      if (!applied.ok()) {
        report.CountOps(1, 1);
        report.Check(false, "Apply: " + applied.status().ToString());
        break;
      }
      std::vector<std::string> names;
      for (int i = 0; i < kDirtyReads &&
                      i < static_cast<int>(applied->dirty_names.size());
           ++i) {
        names.push_back(applied->dirty_names[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(
                                  applied->dirty_names.size()) - 1))]);
      }
      while (static_cast<int>(names.size()) < kReadsPerDelta) {
        names.push_back(read_pool[zipf.Sample(rng)]);
      }
      std::vector<Distinct::ResolveResult> answers;
      int64_t failed_reads = 0;
      for (const std::string& name : names) {
        Stopwatch read;
        DISTINCT_TRACE_SPAN("read");
        auto answer = engine.ResolveName(name);
        cycles.read_ms.push_back(read.Millis());
        if (answer.ok()) {
          answers.push_back(*std::move(answer));
        } else {
          ++failed_reads;
        }
      }
      cycles.cpu_ms.push_back(cycle.CpuMs());
      cycles.wall_ms.push_back(cycle.WallMs());
      report.CountOps(1 + static_cast<int64_t>(names.size()), failed_reads);
      cycles.rows += applied->rows_appended;
      cycles.dirty_names += static_cast<int64_t>(applied->dirty_names.size());
      cycles.reused += applied->names_reused;
      cycles.reresolved += applied->names_reresolved;
      cycles.memo_erased += applied->cache_entries_erased;

      // Outside the cycle: every read must equal the catalog's resolution
      // of that name after the delta. A name below the catalog's min_refs
      // (a new one-reference name) has no resolution there.
      std::unordered_map<std::string, size_t> position;
      for (size_t r = 0; r < catalog.resolutions().size(); ++r) {
        position.emplace(catalog.resolutions()[r].name, r);
      }
      for (size_t a = 0; a < answers.size(); ++a) {
        auto it = position.find(names[a]);
        const bool same =
            it == position.end()
                ? static_cast<int64_t>(answers[a].refs.size()) <
                      filter.min_refs
                : SameClustering(answers[a].clustering,
                                 catalog.resolutions()[it->second].clustering);
        read_mismatches += same ? 0 : 1;
      }
    }
  }
  layers.measured_after = obs::MetricsRegistry::Global().Snapshot();
  report.Check(read_mismatches == 0,
               StrFormat("dataset %llu: every read equals the catalog's "
                         "resolution (%lld differ)",
                         static_cast<unsigned long long>(seed),
                         static_cast<long long>(read_mismatches)));

  // The catalog after the appends must equal a rebuild over the appended
  // database with the same model.
  auto rebuilt = ValueOrDie(
      Distinct::CreateWithModel(db, DblpReferenceSpec(),
                                EngineConfig(options, /*supervised=*/false),
                                engine.model()),
      "rebuild");
  const std::vector<NameGroup> rebuilt_groups =
      ValueOrDie(ScanNameGroups(rebuilt, filter), "scan name groups");
  std::vector<BulkResolution> rebuilt_results;
  DieIfError(ResolveAllNamesParallel(rebuilt, rebuilt_groups, kThreads,
                                     &rebuilt_results)
                 .status(),
             "rebuild scan");
  report.Check(SameResolutions(catalog.resolutions(), rebuilt_results),
               StrFormat("dataset %llu: the appended catalog equals a "
                         "CreateWithModel rebuild resolved from scratch",
                         static_cast<unsigned long long>(seed)));

  if (options.trace) {
    // Apply and ResolveName open their own profile_store / pair_matrix /
    // cluster spans, so the measured loop itself gives the layer split.
    layers.replay_before = layers.measured_before;
    layers.replay_after = layers.measured_after;
    const std::vector<NameGroup> groups =
        ValueOrDie(ScanNameGroups(engine, filter), "scan name groups");
    const std::vector<BulkResolution> expected =
        EveryNth(catalog.resolutions(), 4, 0);
    FinishTracedRun(options, engine, EveryNth(groups, 4, 0), &expected,
                    EveryNth(groups, 2, 0), "delta.cycles", std::move(layers),
                    report);
  }
  return publish_rows;
}

}  // namespace

void RunAppend(const RunOptions& options, Report& report) {
  const int datasets = options.trace || options.smoke ? 1 : kDatasets;
  Rng seeds(options.seed);
  SetupTimes setup;
  Cycles cycles;
  std::string dataset_seeds;
  std::string corpus_refs;
  for (int k = 0; k < datasets; ++k) {
    const uint64_t seed = seeds.Next();
    const int64_t refs = RunDataset(options, seed, options.seconds / datasets,
                                    setup, cycles, report);
    dataset_seeds += StrFormat("%s%llu", k == 0 ? "" : ",",
                               static_cast<unsigned long long>(seed));
    corpus_refs += StrFormat("%s%lld", k == 0 ? "" : ",",
                             static_cast<long long>(refs));
  }
  report.Fact("dataset_seeds", dataset_seeds);
  report.Fact("corpus_refs", corpus_refs);

  setup.ReportTo(report);
  // Every cycle absorbs a different delta, so the cost is the mean over
  // cycles: what appending the run's deltas cost per delta.
  const double cycles_run = static_cast<double>(cycles.cpu_ms.size());
  ReportOps(std::accumulate(cycles.cpu_ms.begin(), cycles.cpu_ms.end(), 0.0) /
                std::max(cycles_run, 1.0),
            cycles.wall_ms, cycles_run, report);
  const double applied = static_cast<double>(
      std::max<size_t>(cycles.cpu_ms.size(), 1));
  report.Add(MetricKind::kExtra, "append.rows",
             static_cast<double>(cycles.rows), "count");
  report.Add(MetricKind::kExtra, "append.apply_p50_ms",
             Median(cycles.apply_ms), "ms");
  report.Add(MetricKind::kExtra, "append.apply_p90_ms",
             Percentile(cycles.apply_ms, 0.9), "ms");
  report.Add(MetricKind::kExtra, "append.read_p50_ms", Median(cycles.read_ms),
             "ms");
  report.Add(MetricKind::kExtra, "delta.dirty_names",
             static_cast<double>(cycles.dirty_names) / applied, "count");
  report.Add(MetricKind::kExtra, "delta.reresolved_share",
             static_cast<double>(cycles.reresolved) /
                 static_cast<double>(
                     std::max<int64_t>(cycles.reused + cycles.reresolved, 1)),
             "ratio");
  report.Add(MetricKind::kExtra, "delta.memo_erased",
             static_cast<double>(cycles.memo_erased) / applied, "count");
}

}  // namespace e2e
}  // namespace distinct
