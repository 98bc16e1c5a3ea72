#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

#include <unistd.h>

#include "common/string_util.h"
#include "dblp/schema.h"
#include "obs/json_writer.h"

namespace distinct {
namespace bench {

GeneratorConfig StandardGeneratorConfig(uint64_t seed) {
  GeneratorConfig config;
  config.seed = seed;
  return config;  // defaults already match DESIGN.md §5
}

DistinctConfig StandardDistinctConfig() {
  DistinctConfig config;
  config.promotions = DblpDefaultPromotions();
  config.min_sim = kDefaultMinSim;
  return config;
}

DblpDataset MustGenerate(const GeneratorConfig& config) {
  auto dataset = GenerateDblpDataset(config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 dataset.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(dataset);
}

Distinct MustCreate(const Database& db, const DistinctConfig& config) {
  auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine creation failed: %s\n",
                 engine.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(engine);
}

int64_t MustInt64InRange(const FlagParser& flags, const char* name,
                         int64_t min_value, int64_t max_value) {
  auto value = flags.GetInt64InRange(name, min_value, max_value);
  if (!value.ok()) {
    std::fprintf(stderr, "%s\n", value.status().ToString().c_str());
    std::exit(1);
  }
  return *value;
}

int MustIntInRange(const FlagParser& flags, const char* name, int min_value,
                   int max_value) {
  return static_cast<int>(MustInt64InRange(flags, name, min_value,
                                           max_value));
}

std::string Fmt3(double value) { return StrFormat("%.3f", value); }

void BenchJson::Add(const std::string& key, int64_t value) {
  Entry entry;
  entry.kind = Entry::Kind::kInt;
  entry.key = key;
  entry.int_value = value;
  entries_.push_back(std::move(entry));
}

void BenchJson::Add(const std::string& key, double value) {
  Entry entry;
  entry.kind = Entry::Kind::kDouble;
  entry.key = key;
  entry.double_value = value;
  entries_.push_back(std::move(entry));
}

void BenchJson::Add(const std::string& key, const std::string& value) {
  Entry entry;
  entry.kind = Entry::Kind::kString;
  entry.key = key;
  entry.string_value = value;
  entries_.push_back(std::move(entry));
}

namespace {

/// Run provenance stamped into every BENCH_*.json so the regression gate
/// (tools/bench_gate) can annotate which machine/build/commit produced each
/// side of a comparison.
void WriteProvenance(obs::JsonWriter& json) {
  char host[256] = {};
  if (::gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
    json.Key("run_host");
    json.Value(std::string(host));
  }
  json.Key("run_threads");
  json.Value(static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.Key("run_build");
#ifdef NDEBUG
  json.Value("release");
#else
  json.Value("debug");
#endif
  // CI exports GITHUB_SHA; local builds can set DISTINCT_GIT_SHA.
  const char* sha = std::getenv("DISTINCT_GIT_SHA");
  if (sha == nullptr || *sha == '\0') {
    sha = std::getenv("GITHUB_SHA");
  }
  if (sha != nullptr && *sha != '\0') {
    json.Key("run_git_sha");
    json.Value(std::string(sha));
  }
}

}  // namespace

std::string BenchJson::Write() const {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.Value(name_);
  WriteProvenance(json);
  for (const Entry& entry : entries_) {
    json.Key(entry.key);
    switch (entry.kind) {
      case Entry::Kind::kInt:
        json.Value(entry.int_value);
        break;
      case Entry::Kind::kDouble:
        json.Value(entry.double_value);
        break;
      case Entry::Kind::kString:
        json.Value(entry.string_value);
        break;
    }
  }
  json.EndObject();

  const char* dir = std::getenv("DISTINCT_BENCH_JSON_DIR");
  std::string path = dir != nullptr && *dir != '\0'
                         ? std::string(dir) + "/"
                         : std::string();
  path += "BENCH_" + name_ + ".json";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return "";
  }
  std::fputs(json.str().c_str(), file);
  std::fputc('\n', file);
  std::fclose(file);
  std::printf("wrote %s\n", path.c_str());
  return path;
}

void PrintBanner(const char* experiment, const char* paper_artifact) {
  std::printf("==============================================================\n");
  std::printf("%s  —  reproduces %s of Yin/Han/Yu, ICDE 2007\n", experiment,
              paper_artifact);
  std::printf("==============================================================\n");
}

}  // namespace bench
}  // namespace distinct
