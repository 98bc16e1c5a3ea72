// Model inspection: prints the learned per-path weights and the pairwise
// similarity distribution for one ambiguous name — the tool to use when
// calibrating min-sim for a new database.
//
//   ./build/examples/inspect_model [--name="Wei Wang"] [--seed=42]

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/flags.h"
#include "core/distinct.h"
#include "dblp/generator.h"
#include "dblp/schema.h"

int main(int argc, char** argv) {
  using namespace distinct;

  FlagParser flags;
  flags.AddString("name", "Wei Wang", "ambiguous name to inspect");
  flags.AddInt64("seed", 42, "generator seed");
  flags.AddBool("supervised", true, "train SVM path weights");
  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.Help().c_str());
    return 1;
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
  config.supervised = flags.GetBool("supervised");
  auto engine = Distinct::Create(dataset->db, DblpReferenceSpec(), config);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }

  std::printf("%s\n", engine->model().DebugString().c_str());

  const std::string name = flags.GetString("name");
  auto refs = engine->RefsForName(name);
  if (!refs.ok() || refs->empty()) {
    std::fprintf(stderr, "no references named '%s'\n", name.c_str());
    return 1;
  }
  auto matrices = engine->ResolveRefsArtifacts(*refs);
  if (!matrices.ok()) {
    std::fprintf(stderr, "%s\n", matrices.status().ToString().c_str());
    return 1;
  }

  // Locate the case's ground truth to split same/different-entity pairs.
  const AmbiguousCase* ambiguous_case = nullptr;
  for (const AmbiguousCase& c : dataset->cases) {
    if (c.name == name) {
      ambiguous_case = &c;
    }
  }

  std::vector<double> same_resem, diff_resem, same_walk, diff_walk;
  const size_t n = refs->size();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) {
      bool same = false;
      if (ambiguous_case != nullptr) {
        int ti = -1, tj = -1;
        for (size_t k = 0; k < ambiguous_case->publish_rows.size(); ++k) {
          if (ambiguous_case->publish_rows[k] == (*refs)[i]) {
            ti = ambiguous_case->truth[k];
          }
          if (ambiguous_case->publish_rows[k] == (*refs)[j]) {
            tj = ambiguous_case->truth[k];
          }
        }
        same = (ti >= 0 && ti == tj);
      }
      (same ? same_resem : diff_resem).push_back(matrices->resem.at(i, j));
      (same ? same_walk : diff_walk).push_back(matrices->walk.at(i, j));
    }
  }

  auto summarize = [](const char* label, std::vector<double>& values) {
    if (values.empty()) {
      std::printf("%-24s (no pairs)\n", label);
      return;
    }
    std::sort(values.begin(), values.end());
    auto pct = [&](double q) {
      return values[static_cast<size_t>(q * (values.size() - 1))];
    };
    std::printf(
        "%-24s n=%6zu  p10=%.6g  p50=%.6g  p90=%.6g  p99=%.6g  max=%.6g\n",
        label, values.size(), pct(0.10), pct(0.50), pct(0.90), pct(0.99),
        values.back());
  };
  std::printf("pairwise similarities for '%s' (%zu refs):\n", name.c_str(),
              n);
  summarize("same-entity resem", same_resem);
  summarize("diff-entity resem", diff_resem);
  summarize("same-entity walk", same_walk);
  summarize("diff-entity walk", diff_walk);
  return 0;
}
