// Pair-kernel comparison on a sparse-overlap workload: one synthetic
// mega-name whose references spread over many distinct entities (and
// therefore many communities), so most reference pairs share no neighbor
// tuples. Rows: the three-pass exactness oracle (ReferencePairMatrices),
// and the fused arena kernel with grouped candidate generation pinned, with
// bitset candidate generation forced on, and at its defaults (every fused
// row must reproduce the oracle's matrices bit-for-bit, hard failure
// otherwise). The serial fill is measured so the row ratio is the kernel
// speedup itself, not a parallelization artifact.

#include <cstdio>

#include "bench_util.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/text_table.h"
#include "dblp/schema.h"
#include "sim/fused_kernel.h"
#include "sim/parallel_kernel.h"
#include "sim/profile_arena.h"
#include "sim/profile_store.h"

namespace {

using namespace distinct;

bool MatricesEqual(const std::pair<PairMatrix, PairMatrix>& a,
                   const std::pair<PairMatrix, PairMatrix>& b) {
  if (a.first.size() != b.first.size()) return false;
  for (size_t i = 0; i < a.first.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (a.first.at(i, j) != b.first.at(i, j)) return false;
      if (a.second.at(i, j) != b.second.at(i, j)) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace distinct;
  using namespace distinct::bench;

  FlagParser flags;
  flags.AddInt64("seed", static_cast<int64_t>(kDefaultSeed),
                 "generator seed");
  flags.AddInt64("refs", 600, "references on the synthetic mega-name");
  flags.AddInt64("entities", 32,
                 "distinct people behind the mega-name; more entities -> "
                 "sparser pair overlap");
  flags.AddInt64("repeat", 3, "timed repetitions per row");
  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.Help().c_str());
    return 1;
  }

  PrintBanner("bench_pair_kernel",
              "fused pair kernel vs its three-pass oracle (implementation, "
              "not a paper figure)");

  GeneratorConfig generator = StandardGeneratorConfig(
      static_cast<uint64_t>(flags.GetInt64("seed")));
  generator.ambiguous = {{"Wei Wang",
                          MustIntInRange(flags, "entities", 1, 1 << 16),
                          MustIntInRange(flags, "refs", 1, 1 << 20)}};
  DblpDataset dataset = MustGenerate(generator);

  // Unsupervised: path-weight training is not what is being measured.
  DistinctConfig config;
  config.supervised = false;
  config.promotions = DblpDefaultPromotions();
  Distinct engine = MustCreate(dataset.db, config);

  auto refs = engine.RefsForName("Wei Wang");
  if (!refs.ok()) {
    std::fprintf(stderr, "%s\n", refs.status().ToString().c_str());
    return 1;
  }
  const size_t n = refs->size();
  const int64_t total_pairs = static_cast<int64_t>(n) * (n - 1) / 2;

  const ProfileStore store =
      ProfileStore::Build(engine.propagation_engine(), engine.paths(),
                          engine.config().propagation, *refs);
  const ProfileArena arena = ProfileArena::FromStore(store);
  const CandidateSet candidates = CandidateSet::Build(arena);
  std::printf("mega-name 'Wei Wang': %zu references over %lld entities, "
              "%zu join paths\n",
              n, static_cast<long long>(flags.GetInt64("entities")),
              engine.paths().size());
  std::printf("candidate pairs: %lld of %lld (%.1f%%)\n\n",
              static_cast<long long>(candidates.count()),
              static_cast<long long>(total_pairs),
              total_pairs > 0
                  ? 100.0 * static_cast<double>(candidates.count()) /
                        static_cast<double>(total_pairs)
                  : 0.0);

  const int repeat = MustIntInRange(flags, "repeat", 1, 1 << 20);

  // Mean seconds over `repeat` runs of `fill`; `out` keeps the last result.
  auto time_fill = [&](const auto& fill,
                       std::pair<PairMatrix, PairMatrix>* out) {
    double seconds = 0.0;
    for (int r = 0; r < repeat; ++r) {
      Stopwatch watch;
      auto matrices = fill();
      seconds += watch.Seconds();
      *out = std::move(matrices);
    }
    return seconds / repeat;
  };
  auto fused_fill = [&](const PairKernelOptions& options) {
    return [&store, &engine, options] {
      return ComputePairMatrices(store, engine.model(), nullptr, options);
    };
  };

  std::pair<PairMatrix, PairMatrix> reference(PairMatrix(0), PairMatrix(0));
  const double reference_s = time_fill(
      [&] { return ReferencePairMatrices(store, engine.model()); },
      &reference);

  // Candidate generation pinned to the sparse grouped marking.
  PairKernelOptions grouped_options;
  grouped_options.candidates.bitset_min_refs = 1 << 30;
  std::pair<PairMatrix, PairMatrix> grouped(PairMatrix(0), PairMatrix(0));
  const double grouped_s = time_fill(fused_fill(grouped_options), &grouped);
  const bool grouped_exact = MatricesEqual(grouped, reference);

  // Bitset candidate generation forced on: same bits, built word-parallel.
  PairKernelOptions bitset_options;
  bitset_options.candidates.bitset_min_refs = 0;
  bitset_options.candidates.bitset_cost_factor = 0.0;
  std::pair<PairMatrix, PairMatrix> bitset(PairMatrix(0), PairMatrix(0));
  const double bitset_s = time_fill(fused_fill(bitset_options), &bitset);
  const bool bitset_exact = MatricesEqual(bitset, reference);

  PairKernelOptions fused_options;
  std::pair<PairMatrix, PairMatrix> fused(PairMatrix(0), PairMatrix(0));
  const double fused_s = time_fill(fused_fill(fused_options), &fused);
  const bool fused_exact = MatricesEqual(fused, reference);

  TextTable table({"kernel", "matrix (s)", "speedup", "exact"});
  for (size_t c = 1; c <= 3; ++c) table.SetRightAlign(c);
  table.AddRow({"reference", Fmt3(reference_s), "1.00", "-"});
  table.AddRow(
      {"fused[grouped-cand]", Fmt3(grouped_s),
       StrFormat("%.2f", grouped_s > 0 ? reference_s / grouped_s : 0.0),
       grouped_exact ? "yes" : "NO"});
  table.AddRow(
      {"fused[bitset-cand]", Fmt3(bitset_s),
       StrFormat("%.2f", bitset_s > 0 ? reference_s / bitset_s : 0.0),
       bitset_exact ? "yes" : "NO"});
  table.AddRow({"fused", Fmt3(fused_s),
                StrFormat("%.2f", fused_s > 0 ? reference_s / fused_s : 0.0),
                fused_exact ? "yes" : "NO"});
  std::printf("%s", table.Render().c_str());

  BenchJson json("pair_kernel");
  json.Add("seed", flags.GetInt64("seed"));
  json.Add("refs", static_cast<int64_t>(n));
  json.Add("entities", flags.GetInt64("entities"));
  json.Add("join_paths", static_cast<int64_t>(engine.paths().size()));
  json.Add("repeat", flags.GetInt64("repeat"));
  json.Add("total_pairs", total_pairs);
  json.Add("candidate_pairs", candidates.count());
  json.Add("reference_matrix_s", reference_s);
  // fused_* is the defaults row; grouped_* and bitset_* pin one candidate
  // machine.
  json.Add("fused_matrix_s", fused_s);
  json.Add("fused_speedup", fused_s > 0 ? reference_s / fused_s : 0.0);
  json.Add("fused_exact", static_cast<int64_t>(fused_exact ? 1 : 0));
  json.Add("grouped_matrix_s", grouped_s);
  json.Add("grouped_speedup", grouped_s > 0 ? reference_s / grouped_s : 0.0);
  json.Add("grouped_exact", static_cast<int64_t>(grouped_exact ? 1 : 0));
  json.Add("bitset_matrix_s", bitset_s);
  json.Add("bitset_speedup", bitset_s > 0 ? reference_s / bitset_s : 0.0);
  json.Add("bitset_exact", static_cast<int64_t>(bitset_exact ? 1 : 0));
  json.Write();

  std::printf(
      "\nevery fused row must reproduce the reference matrices "
      "bit-for-bit.\n");
  if (!grouped_exact) {
    std::fprintf(stderr,
                 "error: grouped candidate generation diverged from the "
                 "reference matrices\n");
    return 1;
  }
  if (!bitset_exact) {
    std::fprintf(stderr,
                 "error: bitset candidate generation diverged from the "
                 "reference matrices\n");
    return 1;
  }
  if (!fused_exact) {
    std::fprintf(stderr,
                 "error: fused kernel diverged from the reference "
                 "matrices\n");
    return 1;
  }
  return 0;
}
