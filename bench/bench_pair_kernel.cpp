// Pair-kernel comparison on a sparse-overlap workload: one synthetic
// mega-name whose references spread over many distinct entities (and
// therefore many communities), so most reference pairs share no neighbor
// tuples. Rows: the three-pass exactness oracle (ReferencePairMatrices,
// over a built store's slices expanded to raw profiles) and the fused
// kernel over the CSR slabs of an all-explicit store of the same
// profiles, which must reproduce the oracle's matrices bit-for-bit (hard
// failure otherwise). Neither row includes propagation or the store's
// layout. The serial fill is measured so the row ratio is the kernel
// speedup itself, not a parallelization artifact.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/text_table.h"
#include "dblp/schema.h"
#include "sim/fused_kernel.h"
#include "sim/parallel_kernel.h"
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

  const std::vector<std::vector<NeighborProfile>> profiles = [&] {
    const ProfileStore built = ProfileStore::Build(
        engine.propagation_engine(), engine.paths(),
        engine.config().propagation, *refs);
    std::vector<std::vector<NeighborProfile>> expanded(n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t p = 0; p < built.num_paths(); ++p) {
        expanded[i].push_back(built.path(p).Expand(i));
      }
    }
    return expanded;
  }();
  const ProfileStore store = ProfileStore::FromProfiles(*refs, profiles);
  const CandidateSet candidates = CandidateSet::Build(store);
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
  std::pair<PairMatrix, PairMatrix> reference(PairMatrix(0), PairMatrix(0));
  const double reference_s = time_fill(
      [&] { return ReferencePairMatrices(profiles, engine.model()); },
      &reference);

  std::pair<PairMatrix, PairMatrix> fused(PairMatrix(0), PairMatrix(0));
  const double fused_s = time_fill(
      [&] { return ComputePairMatrices(store, engine.model()); }, &fused);
  const bool fused_exact = MatricesEqual(fused, reference);

  TextTable table({"kernel", "matrix (s)", "speedup", "exact"});
  for (size_t c = 1; c <= 3; ++c) table.SetRightAlign(c);
  table.AddRow({"reference", Fmt3(reference_s), "1.00", "-"});
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
  json.Add("fused_matrix_s", fused_s);
  json.Add("fused_speedup", fused_s > 0 ? reference_s / fused_s : 0.0);
  json.Add("fused_exact", static_cast<int64_t>(fused_exact ? 1 : 0));
  json.Write();

  std::printf(
      "\nthe fused row must reproduce the reference matrices "
      "bit-for-bit.\n");
  if (!fused_exact) {
    std::fprintf(stderr,
                 "error: fused kernel diverged from the reference "
                 "matrices\n");
    return 1;
  }
  return 0;
}
