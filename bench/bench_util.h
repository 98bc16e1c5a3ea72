// Shared setup for the benchmark harnesses: one standard dataset, one
// standard engine configuration, formatting helpers.

#ifndef DISTINCT_BENCH_BENCH_UTIL_H_
#define DISTINCT_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/string_util.h"
#include "core/distinct.h"
#include "core/evaluation.h"
#include "dblp/generator.h"

namespace distinct {
namespace bench {

/// Seed every harness uses unless overridden on the command line, so the
/// numbers in EXPERIMENTS.md are reproducible with a bare invocation.
inline constexpr uint64_t kDefaultSeed = 42;

/// The DISTINCT min-sim used for the headline results (analog of the
/// paper's fixed min-sim; calibrated once on the default dataset — see
/// bench_minsim_sweep).
inline constexpr double kDefaultMinSim = 3e-2;

/// Generator config of the standard benchmark dataset.
GeneratorConfig StandardGeneratorConfig(uint64_t seed);

/// Engine config used for the headline DISTINCT results.
DistinctConfig StandardDistinctConfig();

/// Generates the dataset or aborts with a message (harness context).
DblpDataset MustGenerate(const GeneratorConfig& config);

/// Creates a trained engine or aborts with a message.
Distinct MustCreate(const Database& db, const DistinctConfig& config);

/// FlagParser::GetInt64InRange for harnesses: aborts with the parser's
/// message when the value is outside [min, max]. Call sites used to narrow
/// GetInt64 with an unchecked static_cast<int>, so --threads=5000000000
/// silently wrapped instead of failing.
int64_t MustInt64InRange(const FlagParser& flags, const char* name,
                         int64_t min_value, int64_t max_value);

/// Same, returning int: bounds are checked before the narrowing cast.
int MustIntInRange(const FlagParser& flags, const char* name, int min_value,
                   int max_value);

/// Formats a double with 3 decimals ("0.927").
std::string Fmt3(double value);

/// Prints the standard harness banner.
void PrintBanner(const char* experiment, const char* paper_artifact);

/// Machine-readable companion to the human tables: collects flat key/value
/// results and writes them as `BENCH_<name>.json` so CI and tooling can
/// diff benchmark runs without scraping stdout.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void Add(const std::string& key, int64_t value);
  void Add(const std::string& key, double value);
  void Add(const std::string& key, const std::string& value);

  /// Writes `BENCH_<name>.json` into $DISTINCT_BENCH_JSON_DIR (when set)
  /// or the working directory. Returns the path, or "" on I/O failure
  /// (benchmarks should keep going — the tables already printed).
  std::string Write() const;

 private:
  struct Entry {
    enum class Kind { kInt, kDouble, kString } kind;
    std::string key;
    int64_t int_value = 0;
    double double_value = 0.0;
    std::string string_value;
  };
  std::string name_;
  std::vector<Entry> entries_;
};

}  // namespace bench
}  // namespace distinct

#endif  // DISTINCT_BENCH_BENCH_UTIL_H_
