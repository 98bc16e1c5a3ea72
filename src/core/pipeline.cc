#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fused_kernel.h"
#include "sim/profile_store.h"
#include "svm/scaler.h"

namespace distinct {

namespace {

/// Fraction of negative examples drawn from *linked* distinct-author pairs
/// (pairs with at least one nonzero path similarity). Random negatives are
/// mostly unlinked, which would teach the SVM that any linkage implies
/// equivalence; hard negatives make it learn which linkage types
/// discriminate.
constexpr double kHardNegativeFraction = 0.5;

/// Negatives are oversampled this many times to find enough linked ones.
constexpr int kNegativeOversample = 4;

}  // namespace

StatusOr<std::unique_ptr<SchemaGraph>> BuildPromotedSchemaGraph(
    const Database& db, const DistinctConfig& config) {
  auto graph = SchemaGraph::Build(db);
  DISTINCT_RETURN_IF_ERROR(graph.status());
  auto owned = std::make_unique<SchemaGraph>(*std::move(graph));
  for (const auto& [table, column] : config.promotions) {
    DISTINCT_RETURN_IF_ERROR(owned->PromoteAttribute(table, column));
  }
  return owned;
}

std::vector<JoinPath> EnumerateReferencePaths(
    const SchemaGraph& graph, const ResolvedReferenceSpec& resolved,
    const DistinctConfig& config) {
  PathEnumerationOptions options;
  options.max_length = config.max_path_length;
  if (config.exclude_identity_first_step) {
    for (int e = 0; e < graph.num_edges(); ++e) {
      const SchemaEdge& edge = graph.edge(e);
      if (edge.table_id == resolved.reference_table_id &&
          edge.column == resolved.identity_column) {
        options.forbidden_first_steps.push_back(
            JoinStep{e, /*forward=*/true});
      }
    }
  }
  return EnumerateJoinPaths(graph, resolved.reference_table_id, options);
}

StatusOr<SimilarityModel> TrainSimilarityModel(
    const Database& db, const ReferenceSpec& spec,
    const DistinctConfig& config, const PropagationEngine& engine,
    const std::vector<JoinPath>& paths, TrainingReport* report) {
  Stopwatch total;
  DISTINCT_TRACE_SPAN("train");

  // Oversample negatives so that enough *linked* distinct-author pairs are
  // available for the hard-negative mix.
  TrainingSetOptions sampling = config.training;
  sampling.num_negative *= kNegativeOversample;
  auto pairs = [&] {
    DISTINCT_TRACE_SPAN("training_set");
    return BuildTrainingSet(db, spec, sampling);
  }();
  DISTINCT_RETURN_IF_ERROR(pairs.status());
  DISTINCT_COUNTER_ADD("train.pairs_sampled",
                       static_cast<int64_t>(pairs->size()));

  Stopwatch features_watch;
  SvmProblem resem_problem;
  SvmProblem walk_problem;

  // Similarity-kernel phase 1: one ProfileStore over every reference that
  // appears in a training pair, fanned out over the configured thread
  // count; phase 2: each pair's features read from the store with the
  // merge-join resolution runs, also parallel. Both phases are
  // bit-identical at every thread count.
  std::vector<int32_t> unique_refs;
  std::unordered_map<int32_t, size_t> position_of;  // into unique_refs
  for (const TrainingPair& pair : *pairs) {
    for (const int32_t ref : {pair.ref1, pair.ref2}) {
      if (position_of.emplace(ref, unique_refs.size()).second) {
        unique_refs.push_back(ref);
      }
    }
  }
  DISTINCT_COUNTER_ADD("train.unique_refs",
                       static_cast<int64_t>(unique_refs.size()));
  DISTINCT_LOG(INFO) << "train: " << pairs->size() << " pairs over "
                     << unique_refs.size() << " unique references, "
                     << paths.size() << " join paths";
  // A pool of training's own, joined when it returns, rather than the
  // engine's long-lived one: memory a worker frees stays in that worker's
  // malloc arena, so training on the engine's workers would leave its
  // profiles and memo idle there, beyond the reach of a later scan's pool
  // (bench_e2e planted_25k peak RSS: ~50 MB this way, ~71 MB that way).
  std::unique_ptr<ThreadPool> pool;
  if (config.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(config.num_threads);
  }
  const ProfileStore store = [&] {
    DISTINCT_TRACE_SPAN("profile_store");
    return ProfileStore::Build(engine, paths, config.propagation, unique_refs,
                               pool.get());
  }();
  std::vector<PairFeatures> pair_features(pairs->size());
  const auto features_of = [&](int64_t p) {
    const TrainingPair& pair = (*pairs)[static_cast<size_t>(p)];
    pair_features[static_cast<size_t>(p)] =
        FusedPairFeatures(store, position_of.at(pair.ref1),
                          position_of.at(pair.ref2));
  };
  {
    DISTINCT_TRACE_SPAN("pair_features");
    if (pool != nullptr) {
      ParallelForShared(*pool, static_cast<int64_t>(pairs->size()),
                        features_of);
    } else {
      for (size_t p = 0; p < pairs->size(); ++p) {
        features_of(static_cast<int64_t>(p));
      }
    }
  }

  // Positives go in unchanged; negative candidates are ranked by how many
  // join paths link them (pairs linked along many paths — e.g. shared
  // venues — are the confusable ones the SVM must learn to discount; pairs
  // sharing only a publication year score low).
  struct NegativeCandidate {
    PairFeatures features;
    int linked_paths = 0;
    size_t order = 0;  // original sampling order, for determinism
  };
  std::vector<NegativeCandidate> negatives;
  for (size_t p = 0; p < pairs->size(); ++p) {
    const TrainingPair& pair = (*pairs)[p];
    PairFeatures features = std::move(pair_features[p]);
    if (pair.label > 0) {
      resem_problem.x.push_back(std::move(features.resemblance));
      resem_problem.y.push_back(+1);
      walk_problem.x.push_back(std::move(features.walk));
      walk_problem.y.push_back(+1);
      continue;
    }
    NegativeCandidate candidate;
    for (const double f : features.resemblance) {
      if (f > 0.0) {
        ++candidate.linked_paths;
      }
    }
    candidate.features = std::move(features);
    candidate.order = negatives.size();
    negatives.push_back(std::move(candidate));
  }

  const int target_negatives = config.training.num_negative;
  const int target_hard = static_cast<int>(
      kHardNegativeFraction * static_cast<double>(target_negatives));
  // Hard slots: the most-linked candidates. Easy slots: the remaining
  // candidates in sampling order.
  std::vector<size_t> by_hardness(negatives.size());
  for (size_t i = 0; i < negatives.size(); ++i) {
    by_hardness[i] = i;
  }
  std::stable_sort(by_hardness.begin(), by_hardness.end(),
                   [&](size_t a, size_t b) {
                     return negatives[a].linked_paths >
                            negatives[b].linked_paths;
                   });
  std::vector<bool> selected(negatives.size(), false);
  int taken = 0;
  for (size_t rank = 0; rank < by_hardness.size() && taken < target_hard;
       ++rank) {
    const size_t i = by_hardness[rank];
    if (negatives[i].linked_paths == 0) {
      break;
    }
    selected[i] = true;
    ++taken;
  }
  for (size_t i = 0; i < negatives.size() && taken < target_negatives; ++i) {
    if (!selected[i]) {
      selected[i] = true;
      ++taken;
    }
  }
  for (size_t i = 0; i < negatives.size(); ++i) {
    if (!selected[i]) {
      continue;
    }
    resem_problem.x.push_back(std::move(negatives[i].features.resemblance));
    resem_problem.y.push_back(-1);
    walk_problem.x.push_back(std::move(negatives[i].features.walk));
    walk_problem.y.push_back(-1);
  }
  const double seconds_features = features_watch.Seconds();

  Stopwatch svm_watch;
  MaxAbsScaler resem_scaler;
  resem_scaler.Fit(resem_problem.x);
  SvmProblem scaled_resem{resem_scaler.TransformAll(resem_problem.x),
                          resem_problem.y};
  auto resem_model = [&] {
    DISTINCT_TRACE_SPAN("svm_resemblance");
    return TrainLinearSvm(scaled_resem, config.svm);
  }();
  DISTINCT_RETURN_IF_ERROR(resem_model.status());

  MaxAbsScaler walk_scaler;
  walk_scaler.Fit(walk_problem.x);
  SvmProblem scaled_walk{walk_scaler.TransformAll(walk_problem.x),
                         walk_problem.y};
  auto walk_model = [&] {
    DISTINCT_TRACE_SPAN("svm_walk");
    return TrainLinearSvm(scaled_walk, config.svm);
  }();
  DISTINCT_RETURN_IF_ERROR(walk_model.status());
  const double seconds_svm = svm_watch.Seconds();

  // Map weights back to raw feature space; the similarity model consumes
  // unscaled features at resolve time.
  std::vector<std::string> path_names;
  path_names.reserve(paths.size());
  // Path names are attached by the caller (which owns the schema graph);
  // left empty here.
  SimilarityModel model(resem_scaler.UnscaleWeights(resem_model->weights()),
                        walk_scaler.UnscaleWeights(walk_model->weights()),
                        std::move(path_names));
  model.ClampAndNormalize();

  // Suggested min-sim: the smallest composite-similarity threshold that
  // still classifies the training pairs with high precision.
  // Clustering recovers pairwise recall transitively (references merge
  // through their strong links, and average-link aggregation then bridges
  // the rest), so the useful operating point is precision-constrained
  // rather than pairwise-F1-optimal.
  double suggested_min_sim = 0.0;
  {
    DISTINCT_TRACE_SPAN("calibrate_min_sim");
    constexpr double kPrecisionTarget = 0.99;
    std::vector<std::pair<double, int>> scored;  // (similarity, label)
    scored.reserve(resem_problem.x.size());
    for (size_t i = 0; i < resem_problem.x.size(); ++i) {
      PairFeatures features;
      features.resemblance = resem_problem.x[i];
      features.walk = walk_problem.x[i];
      const double sim = std::sqrt(model.Resemblance(features) *
                                   model.Walk(features));
      scored.emplace_back(sim, resem_problem.y[i]);
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    int64_t tp = 0;
    int64_t fp = 0;
    for (size_t i = 0; i < scored.size(); ++i) {
      tp += scored[i].second > 0 ? 1 : 0;
      fp += scored[i].second > 0 ? 0 : 1;
      if (i + 1 < scored.size() && scored[i + 1].first == scored[i].first) {
        continue;  // don't cut between equal scores
      }
      const double precision =
          static_cast<double>(tp) / static_cast<double>(tp + fp);
      if (precision >= kPrecisionTarget && scored[i].first > 0.0) {
        const double next = i + 1 < scored.size() ? scored[i + 1].first : 0.0;
        suggested_min_sim = 0.5 * (scored[i].first + next);
      }
    }
  }

  if (report != nullptr) {
    report->suggested_min_sim = suggested_min_sim;
    report->num_paths = static_cast<int>(paths.size());
    report->num_training_pairs = resem_problem.x.size();
    report->num_unique_refs = unique_refs.size();
    report->seconds_features = seconds_features;
    report->seconds_svm = seconds_svm;
    report->seconds_total = total.Seconds();
    report->train_accuracy_resem = resem_model->Accuracy(scaled_resem);
    report->train_accuracy_walk = walk_model->Accuracy(scaled_walk);
  }
  DISTINCT_LOG(INFO) << "train: done in " << total.Seconds()
                     << "s (features " << seconds_features << "s, svm "
                     << seconds_svm << "s), suggested min-sim "
                     << suggested_min_sim;
  return model;
}

}  // namespace distinct
