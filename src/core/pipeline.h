// Internal pipeline steps shared by Distinct::Create and the benchmarks.
//
// Exposed in a header (rather than hidden in distinct.cc) so the ablation
// benchmarks and tests can exercise individual stages.

#ifndef DISTINCT_CORE_PIPELINE_H_
#define DISTINCT_CORE_PIPELINE_H_

#include <memory>
#include <vector>

#include "core/distinct.h"

namespace distinct {

/// Builds the schema graph with the configured attribute promotions.
StatusOr<std::unique_ptr<SchemaGraph>> BuildPromotedSchemaGraph(
    const Database& db, const DistinctConfig& config);

/// Join paths from the reference relation, excluding the identity edge as
/// the first step when configured.
std::vector<JoinPath> EnumerateReferencePaths(
    const SchemaGraph& graph, const ResolvedReferenceSpec& resolved,
    const DistinctConfig& config);

/// Fits the supervised path-weight model: builds the automatic training
/// set, extracts per-pair features along `paths` (propagated by `engine`
/// under config.propagation), trains one linear SVM for the resemblance
/// features and one for the walk features, and maps the learned weights
/// back to raw feature space. Fills `report`.
StatusOr<SimilarityModel> TrainSimilarityModel(
    const Database& db, const ReferenceSpec& spec,
    const DistinctConfig& config, const PropagationEngine& engine,
    const std::vector<JoinPath>& paths, TrainingReport* report);

}  // namespace distinct

#endif  // DISTINCT_CORE_PIPELINE_H_
