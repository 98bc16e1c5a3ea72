#include "core/distinct.h"

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/parallel_kernel.h"
#include "sim/profile_store.h"

namespace distinct {

StatusOr<Distinct> Distinct::CreateWithModel(const Database& db,
                                             const ReferenceSpec& spec,
                                             DistinctConfig config,
                                             SimilarityModel model) {
  config.supervised = false;  // never train when a model is supplied
  auto engine = Create(db, spec, std::move(config));
  DISTINCT_RETURN_IF_ERROR(engine.status());

  if (model.num_paths() != engine->paths_.size()) {
    return InvalidArgumentError(StrFormat(
        "supplied model has %zu paths; this schema enumerates %zu",
        model.num_paths(), engine->paths_.size()));
  }
  if (!model.path_names().empty()) {
    for (size_t p = 0; p < model.num_paths(); ++p) {
      const std::string current =
          engine->paths_[p].Describe(*engine->schema_graph_);
      if (model.path_names()[p] != current) {
        return InvalidArgumentError(
            "supplied model was trained on a different schema: path " +
            std::to_string(p) + " is '" + model.path_names()[p] +
            "' in the model but '" + current + "' here");
      }
    }
  }
  engine->model_ = std::move(model);
  return engine;
}

StatusOr<Distinct> Distinct::Create(const Database& db,
                                    const ReferenceSpec& spec,
                                    DistinctConfig config) {
  Distinct engine;
  engine.db_ = &db;
  engine.config_ = std::move(config);
  if (engine.config_.observability) {
    obs::SetEnabled(true);
  }
  DISTINCT_TRACE_SPAN("create");

  auto resolved = ResolveReferenceSpec(db, spec);
  DISTINCT_RETURN_IF_ERROR(resolved.status());
  engine.resolved_ = *resolved;

  auto schema_graph = [&] {
    DISTINCT_TRACE_SPAN("schema_graph");
    return BuildPromotedSchemaGraph(db, engine.config_);
  }();
  DISTINCT_RETURN_IF_ERROR(schema_graph.status());
  engine.schema_graph_ = *std::move(schema_graph);

  auto link_graph = [&] {
    DISTINCT_TRACE_SPAN("link_graph");
    return LinkGraph::Build(*engine.schema_graph_);
  }();
  DISTINCT_RETURN_IF_ERROR(link_graph.status());
  engine.link_graph_ = std::make_unique<LinkGraph>(*std::move(link_graph));

  engine.engine_ = std::make_unique<PropagationEngine>(*engine.link_graph_);

  engine.paths_ = [&] {
    DISTINCT_TRACE_SPAN("enumerate_paths");
    return EnumerateReferencePaths(*engine.schema_graph_, engine.resolved_,
                                   engine.config_);
  }();
  DISTINCT_COUNTER_ADD("core.join_paths_enumerated",
                       static_cast<int64_t>(engine.paths_.size()));
  if (engine.paths_.empty()) {
    return FailedPreconditionError(
        "no join paths found from the reference relation; is the schema "
        "connected?");
  }

  std::vector<std::string> path_names;
  path_names.reserve(engine.paths_.size());
  for (const JoinPath& path : engine.paths_) {
    path_names.push_back(path.Describe(*engine.schema_graph_));
  }

  if (engine.config_.num_threads > 1) {
    engine.pool_ = std::make_unique<ThreadPool>(engine.config_.num_threads);
  }
  // Warm state for every query of the engine's lifetime: suffix
  // distributions computed for one name are hits for every later name.
  // Sharing cannot change results — a memo hit returns exactly what a miss
  // would recompute.
  if (engine.config_.propagation.algorithm ==
      PropagationAlgorithm::kWorkspace) {
    engine.memo_ =
        std::make_unique<SubtreeCache>(engine.config_.propagation.cache_bytes);
    engine.workspaces_ = std::make_unique<WorkspacePool>(*engine.link_graph_);
  }

  // Name -> reference-rows index, built once; RefsForName and
  // ScanNameGroups(engine, ...) queries reuse it instead of rescanning the
  // name and reference tables.
  {
    DISTINCT_TRACE_SPAN("name_index");
    engine.AbsorbNameRows(0, 0);
  }
  engine.tuple_watermark_ = db.TotalRows();
  engine.catalog_version_ = engine.config_.base_catalog_version;

  if (engine.config_.supervised) {
    Stopwatch watch;
    auto model =
        TrainSimilarityModel(db, spec, engine.config_, *engine.engine_,
                             engine.paths_, &engine.report_);
    DISTINCT_RETURN_IF_ERROR(model.status());
    engine.model_ =
        SimilarityModel(model->resem_weights(), model->walk_weights(),
                        std::move(path_names));
    engine.report_.seconds_total = watch.Seconds();
    if (engine.config_.auto_min_sim &&
        engine.report_.suggested_min_sim > 0.0) {
      engine.config_.min_sim = engine.report_.suggested_min_sim;
    }
  } else {
    engine.model_ = SimilarityModel::Uniform(engine.paths_.size(),
                                             std::move(path_names));
    engine.report_.num_paths = static_cast<int>(engine.paths_.size());
  }
  return engine;
}

void Distinct::AbsorbNameRows(int64_t first_name_row, int64_t first_ref_row) {
  const Table& name_table = db_->table(resolved_.name_table_id);
  const Table& ref_table = db_->table(resolved_.reference_table_id);
  const int pk_col = name_table.primary_key_column();
  name_group_of_pk_.reserve(static_cast<size_t>(name_table.num_rows()));
  for (int64_t row = first_name_row; row < name_table.num_rows(); ++row) {
    if (name_table.IsNull(row, resolved_.name_column)) {
      continue;  // no name, no group: like a NULL identity below
    }
    const std::string& name = name_table.GetString(row, resolved_.name_column);
    auto [it, inserted] = name_index_.emplace(name, name_groups_.size());
    if (inserted) {
      name_groups_.emplace_back(name, std::vector<int32_t>{});
    }
    name_group_of_pk_[name_table.GetInt(row, pk_col)] = it->second;
  }
  group_of_ref_.resize(static_cast<size_t>(ref_table.num_rows()), -1);
  for (int64_t row = first_ref_row; row < ref_table.num_rows(); ++row) {
    if (ref_table.IsNull(row, resolved_.identity_column)) {
      continue;
    }
    auto it = name_group_of_pk_.find(
        ref_table.GetInt(row, resolved_.identity_column));
    if (it != name_group_of_pk_.end()) {
      name_groups_[it->second].second.push_back(static_cast<int32_t>(row));
      group_of_ref_[static_cast<size_t>(row)] =
          static_cast<int32_t>(it->second);
    }
  }
}

AgglomerativeOptions Distinct::cluster_options() const {
  AgglomerativeOptions options;
  options.min_sim = config_.min_sim;
  options.measure = config_.measure;
  options.combine = config_.combine;
  options.stopping = config_.stopping;
  return options;
}

StatusOr<std::vector<int32_t>> Distinct::RefsForName(
    const std::string& name) const {
  // Several name-table rows may carry the same string (e.g. two "Forgotten"
  // songs the catalog already tells apart); the index collapses them into
  // one group.
  auto it = name_index_.find(name);
  if (it == name_index_.end()) {
    return std::vector<int32_t>{};
  }
  return name_groups_[it->second].second;
}

ProfileStore Distinct::BuildProfileStore(const std::vector<int32_t>& refs) {
  DISTINCT_TRACE_SPAN("profile_store");
  return ProfileStore::Build(*engine_, paths_, config_.propagation, refs,
                             pool_.get(), ProfileStore::kMinParallelRefs,
                             memo_.get(), workspaces_.get());
}

StatusOr<std::pair<PairMatrix, PairMatrix>> Distinct::ComputeMatrices(
    const std::vector<int32_t>& refs) {
  // Phase 1: n propagations per path, each independent. Phase 2: tiled
  // lower-triangle fill. Both fan out over the engine pool when configured;
  // with num_threads == 1 this is exactly the old serial loop.
  const ProfileStore store = BuildProfileStore(refs);
  DISTINCT_TRACE_SPAN("pair_matrix");
  return ComputePairMatrices(store, model_, pool_.get());
}

StatusOr<ClusteringResult> Distinct::ResolveRefs(
    const std::vector<int32_t>& refs) {
  const auto matrices = ComputeMatrices(refs);
  DISTINCT_RETURN_IF_ERROR(matrices.status());
  DISTINCT_TRACE_SPAN("cluster");
  return ClusterReferences(matrices->first, matrices->second,
                           cluster_options());
}

StatusOr<Distinct::ResolveArtifacts> Distinct::ResolveRefsArtifacts(
    const std::vector<int32_t>& refs) {
  ProfileStore store = BuildProfileStore(refs);
  auto matrices = [&] {
    DISTINCT_TRACE_SPAN("pair_matrix");
    return ComputePairMatrices(store, model_, pool_.get());
  }();
  DISTINCT_TRACE_SPAN("cluster");
  ClusteringResult clustering =
      ClusterReferences(matrices.first, matrices.second, cluster_options());
  return ResolveArtifacts{std::move(store), std::move(matrices.first),
                          std::move(matrices.second), std::move(clustering)};
}

StatusOr<Distinct::ResolveResult> Distinct::ResolveName(
    const std::string& name) {
  auto refs = RefsForName(name);
  DISTINCT_RETURN_IF_ERROR(refs.status());
  if (refs->empty()) {
    return NotFoundError("no references named '" + name + "'");
  }
  auto clustering = ResolveRefs(*refs);
  DISTINCT_RETURN_IF_ERROR(clustering.status());
  ResolveResult result;
  result.refs = *std::move(refs);
  result.clustering = *std::move(clustering);
  return result;
}

}  // namespace distinct
