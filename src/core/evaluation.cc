#include "core/evaluation.h"

namespace distinct {

StatusOr<CaseEvaluation> EvaluateCase(Distinct& engine,
                                      const AmbiguousCase& c) {
  auto clustering = engine.ResolveRefs(c.publish_rows);
  DISTINCT_RETURN_IF_ERROR(clustering.status());
  CaseEvaluation evaluation;
  evaluation.name = c.name;
  evaluation.num_entities = c.num_entities;
  evaluation.num_refs = c.publish_rows.size();
  evaluation.scores =
      PairwisePrecisionRecall(c.truth, clustering->assignment);
  evaluation.clustering = *std::move(clustering);
  return evaluation;
}

StatusOr<std::vector<CaseEvaluation>> EvaluateCases(
    Distinct& engine, const std::vector<AmbiguousCase>& cases) {
  std::vector<CaseEvaluation> evaluations;
  evaluations.reserve(cases.size());
  for (const AmbiguousCase& c : cases) {
    auto evaluation = EvaluateCase(engine, c);
    DISTINCT_RETURN_IF_ERROR(evaluation.status());
    evaluations.push_back(*std::move(evaluation));
  }
  return evaluations;
}

AggregateScores Aggregate(const std::vector<CaseEvaluation>& evaluations) {
  AggregateScores aggregate;
  if (evaluations.empty()) {
    return aggregate;
  }
  for (const CaseEvaluation& evaluation : evaluations) {
    aggregate.precision += evaluation.scores.precision;
    aggregate.recall += evaluation.scores.recall;
    aggregate.f1 += evaluation.scores.f1;
    aggregate.accuracy += evaluation.scores.accuracy;
  }
  const double n = static_cast<double>(evaluations.size());
  aggregate.precision /= n;
  aggregate.recall /= n;
  aggregate.f1 /= n;
  aggregate.accuracy /= n;
  return aggregate;
}

StatusOr<std::vector<CaseMatrices>> ComputeCaseMatrices(
    Distinct& engine, const std::vector<AmbiguousCase>& cases) {
  std::vector<CaseMatrices> matrices;
  matrices.reserve(cases.size());
  for (const AmbiguousCase& c : cases) {
    auto artifacts = engine.ResolveRefsArtifacts(c.publish_rows);
    DISTINCT_RETURN_IF_ERROR(artifacts.status());
    CaseMatrices m;
    m.ambiguous_case = &c;
    m.resem = std::move(artifacts->resem);
    m.walk = std::move(artifacts->walk);
    matrices.push_back(std::move(m));
  }
  return matrices;
}

std::vector<CaseEvaluation> EvaluateWithOptions(
    const std::vector<CaseMatrices>& matrices,
    const AgglomerativeOptions& options) {
  std::vector<CaseEvaluation> evaluations;
  evaluations.reserve(matrices.size());
  for (const CaseMatrices& m : matrices) {
    CaseEvaluation evaluation;
    evaluation.name = m.ambiguous_case->name;
    evaluation.num_entities = m.ambiguous_case->num_entities;
    evaluation.num_refs = m.ambiguous_case->publish_rows.size();
    evaluation.clustering = ClusterReferences(m.resem, m.walk, options);
    evaluation.scores = PairwisePrecisionRecall(
        m.ambiguous_case->truth, evaluation.clustering.assignment);
    evaluations.push_back(std::move(evaluation));
  }
  return evaluations;
}

double BestMinSim(const std::vector<CaseMatrices>& matrices,
                  AgglomerativeOptions options,
                  const std::vector<double>& grid) {
  double best_min_sim = options.min_sim;
  double best_f1 = -1.0;
  for (const double min_sim : grid) {
    options.min_sim = min_sim;
    const AggregateScores aggregate =
        Aggregate(EvaluateWithOptions(matrices, options));
    if (aggregate.f1 > best_f1) {
      best_f1 = aggregate.f1;
      best_min_sim = min_sim;
    }
  }
  return best_min_sim;
}

std::vector<double> DefaultMinSimGrid() {
  std::vector<double> grid;
  // Log-spaced from 1e-5 to ~0.7 with six points per decade.
  for (double base = 1e-5; base < 0.2; base *= 10.0) {
    for (const double step : {1.0, 1.5, 2.0, 3.0, 5.0, 7.0}) {
      grid.push_back(base * step);
    }
  }
  return grid;
}

}  // namespace distinct
