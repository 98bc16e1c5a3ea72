// The four bench_e2e workloads. Each one builds its inputs from the seed
// (untimed), sets up the system several times (setup_s is the median),
// measures for RunOptions::seconds, checks its outputs, and fills a Report.
// README.md records why each workload exists and which layer it stresses.

#ifndef DISTINCT_BENCH_E2E_WORKLOADS_H_
#define DISTINCT_BENCH_E2E_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/distinct.h"
#include "harness.h"
#include "relational/database.h"

namespace distinct {
namespace e2e {

struct Workload {
  const char* name;
  const char* why;
  void (*run)(const RunOptions& options, Report& report);
};

/// Every workload, in the order a full run executes them.
const std::vector<Workload>& Workloads();

/// Catalog-scale scan: synthetic dblp.xml -> ingest -> open -> materialize
/// -> unsupervised Create, then repeated RunShardedScan over a sample.
void RunOffline(const RunOptions& options, Report& report);
/// Catalog-scale serving: the same engine behind an in-process ServeServer.
void RunServe(const RunOptions& options, Report& report);
/// Planted 25k dataset: supervised Create, repeated full scans, accuracy.
void RunPlanted(const RunOptions& options, Report& report);
/// Planted 25k dataset: incremental appends interleaved with reads.
void RunAppend(const RunOptions& options, Report& report);

/// What the catalog workloads share: a materialized database and the
/// unsupervised engine over it, with the cost of each set-up step.
struct CatalogEngine {
  std::unique_ptr<Database> db;  // stable address: the engine points into it
  std::unique_ptr<Distinct> engine;
  double ingest_s = 0.0;
  double ingest_mb_per_s = 0.0;
  double open_s = 0.0;
  double materialize_s = 0.0;
  double create_s = 0.0;
  double rss_after_materialize_mb = 0.0;
};

/// Set-up shared by the catalog workloads. Writes the seeded synthetic
/// corpus (input generation, not timed), then repeats the timed set-up —
/// ingest into a fresh catalog directory, open, materialize, unsupervised
/// Create, each under a bench-side span — and reports setup_s and the
/// catalog.* and core.* costs of the engine it keeps.
CatalogEngine SetUpCatalog(const RunOptions& options, Report& report,
                           std::vector<obs::SpanRecord>* create_spans);

/// The name groups a catalog-scale scan covers, largest first: 2 to 1,000
/// references (larger names are left out; README, known limits).
std::vector<NameGroup> CatalogScanGroups(const Distinct& engine);

/// What the traced runs of the catalog workloads sweep threads over: every
/// 1,024th of CatalogScanGroups from rank 256 (~120 groups, ~0.9k
/// references), so that neither the largest name nor the long tail of
/// two-reference names sets the scaling.
std::vector<NameGroup> CatalogSweepSample(const std::vector<NameGroup>& groups);

}  // namespace e2e
}  // namespace distinct

#endif  // DISTINCT_BENCH_E2E_WORKLOADS_H_
