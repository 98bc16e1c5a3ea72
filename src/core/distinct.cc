#include "core/distinct.h"

#include <algorithm>

#include "common/dictionary.h"
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
  const Dictionary& names = name_table.dictionary(resolved_.name_column);
  name_group_of_row_.resize(static_cast<size_t>(name_table.num_rows()), -1);
  group_of_name_id_.resize(static_cast<size_t>(names.size()), -1);
  for (int64_t row = first_name_row; row < name_table.num_rows(); ++row) {
    const int64_t id = name_table.raw(row, resolved_.name_column);
    if (id == kNullCell) {
      continue;  // no name, no group: like a NULL identity below
    }
    int32_t& group = group_of_name_id_[static_cast<size_t>(id)];
    if (group < 0) {
      group = static_cast<int32_t>(name_groups_.size());
      name_groups_.emplace_back(names.Lookup(id), std::vector<int32_t>{});
    }
    name_group_of_row_[static_cast<size_t>(row)] = group;
  }
  group_of_ref_.resize(static_cast<size_t>(ref_table.num_rows()), -1);
  for (int64_t row = first_ref_row; row < ref_table.num_rows(); ++row) {
    if (ref_table.IsNull(row, resolved_.identity_column)) {
      continue;
    }
    const StatusOr<int64_t> name_row = name_table.RowForPrimaryKey(
        ref_table.GetInt(row, resolved_.identity_column));
    if (!name_row.ok()) {
      continue;
    }
    const int32_t group = name_group_of_row_[static_cast<size_t>(*name_row)];
    if (group >= 0) {
      name_groups_[static_cast<size_t>(group)].second.push_back(
          static_cast<int32_t>(row));
      group_of_ref_[static_cast<size_t>(row)] = group;
    }
  }
}

AgglomerativeOptions Distinct::cluster_options() const {
  AgglomerativeOptions options;
  options.min_sim = config_.min_sim;
  options.measure = config_.measure;
  options.combine = config_.combine;
  return options;
}

StatusOr<std::vector<int32_t>> Distinct::RefsForName(
    const std::string& name) const {
  // Several name-table rows may carry the same string (e.g. two "Forgotten"
  // songs the catalog already tells apart); they share its dictionary id,
  // so the index collapses them into one group.
  const std::optional<int64_t> id =
      db_->table(resolved_.name_table_id)
          .FindString(resolved_.name_column, name);
  const int32_t group =
      id.has_value() && *id < static_cast<int64_t>(group_of_name_id_.size())
          ? group_of_name_id_[static_cast<size_t>(*id)]
          : -1;
  if (group < 0) {
    return std::vector<int32_t>{};
  }
  return name_groups_[static_cast<size_t>(group)].second;
}

Status Distinct::CheckReferenceRows(const std::vector<int32_t>& refs) const {
  // The link graph's tuples, not the table's rows: a row appended to the
  // table without ApplyDelta has no tuple to propagate from.
  const int64_t rows = link_graph_->NumTuples(resolved_.reference_table_id);
  for (const int32_t ref : refs) {
    if (ref < 0 || ref >= rows) {
      return InvalidArgumentError(StrFormat(
          "reference row %d is outside the reference table (%lld rows)", ref,
          static_cast<long long>(rows)));
    }
  }
  return Status::Ok();
}

StatusOr<ClusteringResult> Distinct::ResolveRefs(
    const std::vector<int32_t>& refs) {
  auto artifacts = ResolveRefsArtifacts(refs);
  DISTINCT_RETURN_IF_ERROR(artifacts.status());
  return std::move(artifacts->clustering);
}

StatusOr<Distinct::ResolveArtifacts> Distinct::ResolveRefsArtifacts(
    const std::vector<int32_t>& refs) {
  return ResolveGroup(*this, refs, pool_.get(), memo_.get(),
                      workspaces_.get(), /*cancel=*/nullptr, /*traced=*/true);
}

StatusOr<Distinct::ResolveArtifacts> Distinct::PatchResolveArtifacts(
    ResolveArtifacts cached, const std::vector<int32_t>& refs,
    const std::vector<int32_t>& dirty_refs,
    const std::vector<uint64_t>& dirty_ref_path_masks) {
  return ResolveGroup(*this, refs, pool_.get(), memo_.get(),
                      workspaces_.get(), /*cancel=*/nullptr, /*traced=*/true,
                      std::move(cached), dirty_refs, dirty_ref_path_masks);
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

StatusOr<Distinct::ResolveArtifacts> ResolveGroup(
    const Distinct& engine, const std::vector<int32_t>& refs,
    ThreadPool* pool, SubtreeCache* memo, WorkspacePool* workspaces,
    const CancelToken* cancel, bool traced,
    std::optional<Distinct::ResolveArtifacts> cached,
    const std::vector<int32_t>& dirty_refs,
    const std::vector<uint64_t>& dirty_ref_path_masks) {
  DISTINCT_RETURN_IF_ERROR(engine.CheckReferenceRows(refs));
  std::optional<obs::ScopedSpan> stage;
  const auto open_stage = [&](const char* name) {
    stage.reset();
    if (traced) {
      stage.emplace(name);
    }
  };
  const PairKernelOptions kernel{cancel};
  std::optional<ProfileStore> store;
  std::optional<std::pair<PairMatrix, PairMatrix>> matrices;
  if (!cached.has_value()) {
    open_stage("profile_store");
    store.emplace(ProfileStore::Build(
        engine.propagation_engine(), engine.paths(),
        engine.config().propagation, refs, pool,
        ProfileStore::kMinParallelRefs, memo, workspaces));
    open_stage("pair_matrix");
    matrices.emplace(
        ComputePairMatrices(*store, engine.model(), pool, kernel));
  } else {
    const std::vector<int32_t>& old_refs = cached->store.refs();
    if (old_refs.size() > refs.size() ||
        !std::equal(old_refs.begin(), old_refs.end(), refs.begin())) {
      return InvalidArgumentError(
          "cached artifacts do not cover a prefix of the group's references "
          "— append-only deltas keep existing references in place");
    }
    const size_t old_n = old_refs.size();
    const bool have_masks = dirty_ref_path_masks.size() == dirty_refs.size() &&
                            !dirty_ref_path_masks.empty();
    // Positions whose profiles the delta may have changed; the appended
    // suffix is dirty by definition (it has no cached state at all).
    std::vector<size_t> positions;
    std::vector<uint64_t> path_masks;
    std::vector<char> dirty(refs.size(), 0);
    for (size_t i = 0; i < old_n; ++i) {
      const auto it =
          std::lower_bound(dirty_refs.begin(), dirty_refs.end(), refs[i]);
      if (it == dirty_refs.end() || *it != refs[i]) {
        continue;
      }
      positions.push_back(i);
      dirty[i] = 1;
      if (have_masks) {
        path_masks.push_back(dirty_ref_path_masks[static_cast<size_t>(
            it - dirty_refs.begin())]);
      }
    }
    std::fill(dirty.begin() + static_cast<ptrdiff_t>(old_n), dirty.end(), 1);

    open_stage("profile_store");
    store.emplace(std::move(cached->store));
    store->Update(engine.propagation_engine(), engine.paths(),
                  engine.config().propagation, positions,
                  std::vector<int32_t>(refs.begin() + old_n, refs.end()),
                  pool, memo, workspaces, have_masks ? &path_masks : nullptr);
    open_stage("pair_matrix");
    matrices.emplace(UpdatePairMatrices(*store, engine.model(), dirty,
                                        cached->resem, cached->walk, pool,
                                        kernel));
  }
  if (cancel != nullptr && cancel->aborted()) {
    // The fill stopped at a tile/row boundary; the matrices are partial.
    return DeadlineExceededError("deadline expired in pair kernel");
  }
  open_stage("cluster");
  ClusteringResult clustering = ClusterReferences(
      matrices->first, matrices->second, engine.cluster_options());
  return Distinct::ResolveArtifacts{
      *std::move(store), std::move(matrices->first),
      std::move(matrices->second), std::move(clustering)};
}

}  // namespace distinct
