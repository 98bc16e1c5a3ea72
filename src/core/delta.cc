#include "core/delta.h"

#include <algorithm>
#include <filesystem>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/trace.h"
#include "relational/csv.h"
#include "relational/schema_graph.h"

namespace distinct {

void DatabaseDelta::Add(const std::string& table, std::vector<Value> row) {
  auto [it, inserted] = index_.emplace(table, tables_.size());
  if (inserted) {
    tables_.push_back(TableRows{table, {}});
  }
  tables_[it->second].rows.push_back(std::move(row));
}

int64_t DatabaseDelta::num_rows() const {
  int64_t total = 0;
  for (const TableRows& batch : tables_) {
    total += static_cast<int64_t>(batch.rows.size());
  }
  return total;
}

namespace {

/// Dry run of `delta` against `db`. Each batch is staged through
/// Table::AppendRow on an empty copy of its table, so the checks of one row
/// (arity, types, NULL and INT64_MIN cells, keys repeated within the batch)
/// are the ones the real append makes. What spans tables is checked here:
/// primary keys against existing rows, and foreign keys against existing
/// and staged rows. Nothing of `db` is mutated, so a rejected delta leaves
/// the database and every structure derived from it untouched.
Status ValidateDelta(const Database& db, const DatabaseDelta& delta) {
  std::unordered_map<std::string, Table> staged;
  for (const DatabaseDelta::TableRows& batch : delta.tables()) {
    auto table = db.FindTable(batch.table);
    DISTINCT_RETURN_IF_ERROR(table.status());
    const Table& live = **table;
    Table staging = live.EmptyCopy();
    const int pk = live.primary_key_column();
    for (size_t r = 0; r < batch.rows.size(); ++r) {
      auto row = staging.AppendRow(batch.rows[r]);
      if (!row.ok()) {
        return InvalidArgumentError(
            StrFormat("delta row %zu of %s: %s", r, batch.table.c_str(),
                      row.status().message().c_str()));
      }
      if (pk >= 0 && live.RowForPrimaryKey(staging.raw(*row, pk)).ok()) {
        return InvalidArgumentError(StrFormat(
            "delta row %zu of %s: duplicate primary key %lld", r,
            batch.table.c_str(),
            static_cast<long long>(staging.raw(*row, pk))));
      }
    }
    staged.emplace(batch.table, std::move(staging));
  }
  // Once every batch is staged: foreign keys may point at rows the delta
  // itself appends.
  for (const DatabaseDelta::TableRows& batch : delta.tables()) {
    const Table& t = staged.at(batch.table);
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      for (int c = 0; c < t.num_columns(); ++c) {
        const ColumnSpec& spec = t.column(c);
        const int64_t fk = t.raw(r, c);
        if (spec.fk_table.empty() || fk == kNullCell) {
          continue;
        }
        auto target = db.FindTable(spec.fk_table);
        DISTINCT_RETURN_IF_ERROR(target.status());
        const auto pending = staged.find(spec.fk_table);
        if ((*target)->RowForPrimaryKey(fk).ok() ||
            (pending != staged.end() &&
             pending->second.RowForPrimaryKey(fk).ok())) {
          continue;
        }
        return FailedPreconditionError(StrFormat(
            "delta row %lld of %s: dangling FK %s -> %lld (%s)",
            static_cast<long long>(r), batch.table.c_str(), spec.name.c_str(),
            static_cast<long long>(fk), spec.fk_table.c_str()));
      }
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<DeltaReport> Distinct::ApplyDelta(Database& db,
                                           const DatabaseDelta& delta) {
  if (&db != db_) {
    return InvalidArgumentError(
        "ApplyDelta must be given the database the engine was created over");
  }
  DISTINCT_TRACE_SPAN("apply_delta");
  DISTINCT_RETURN_IF_ERROR(ValidateDelta(db, delta));

  const SchemaGraph& schema = *schema_graph_;
  const int num_nodes = schema.num_nodes();
  std::vector<int64_t> old_tuples(static_cast<size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    old_tuples[static_cast<size_t>(n)] = link_graph_->NumTuples(n);
  }
  std::vector<int64_t> old_rows(static_cast<size_t>(db.num_tables()));
  for (int i = 0; i < db.num_tables(); ++i) {
    old_rows[static_cast<size_t>(i)] = db.table(i).num_rows();
  }

  DeltaReport report;
  for (const DatabaseDelta::TableRows& batch : delta.tables()) {
    auto table = db.FindMutableTable(batch.table);
    DISTINCT_RETURN_IF_ERROR(table.status());
    for (const std::vector<Value>& row : batch.rows) {
      DISTINCT_RETURN_IF_ERROR((*table)->AppendRow(row).status());
      ++report.rows_appended;
    }
  }

  // Appended rows can only introduce dangling FKs already rejected by the
  // dry run, so the in-place extension cannot hit its error path here.
  DISTINCT_RETURN_IF_ERROR(link_graph_->ApplyAppend());

  const int64_t old_ref_rows =
      old_rows[static_cast<size_t>(resolved_.reference_table_id)];
  AbsorbNameRows(old_rows[static_cast<size_t>(resolved_.name_table_id)],
                 old_ref_rows);
  report.new_refs =
      db.table(resolved_.reference_table_id).num_rows() - old_ref_rows;

  // Changed tuples per node: tuples the delta appended, plus forward
  // targets of appended rows (their reverse lists and fanouts grew —
  // forward lists of old rows never change under append).
  std::vector<std::vector<int32_t>> changed(static_cast<size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    for (int64_t t = old_tuples[static_cast<size_t>(n)];
         t < link_graph_->NumTuples(n); ++t) {
      changed[static_cast<size_t>(n)].push_back(static_cast<int32_t>(t));
    }
  }
  for (int e = 0; e < schema.num_edges(); ++e) {
    const SchemaEdge& edge = schema.edge(e);
    const int64_t rows = db.table(edge.table_id).num_rows();
    for (int64_t row = old_rows[static_cast<size_t>(edge.table_id)];
         row < rows; ++row) {
      const auto target = link_graph_->Forward(e, static_cast<int32_t>(row));
      if (!target.empty() &&
          target[0] < old_tuples[static_cast<size_t>(edge.to_node)]) {
        changed[static_cast<size_t>(edge.to_node)].push_back(target[0]);
      }
    }
  }
  for (auto& tuples : changed) {
    std::sort(tuples.begin(), tuples.end());
    tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  }

  // Per-path backward sweep: the frontier at level 0 is the references
  // whose profile along the path may have changed; the frontier at the
  // junction level is the memo entries whose cached suffix may have.
  const std::vector<JoinPath>& paths = paths_;
  const int start_node = paths.empty() ? 0 : paths.front().start_node;
  // Per-reference bitmask of the paths whose profile the delta may have
  // changed (paths past bit 63 conservatively dirty every bit). A nonzero
  // mask is what makes a reference — and its name — dirty; the mask itself
  // lets the splice update recompute only the dirtied paths.
  std::vector<uint64_t> dirty_ref(
      static_cast<size_t>(link_graph_->NumTuples(start_node)), 0);
  for (size_t p = 0; p < paths.size(); ++p) {
    const JoinPath& path = paths[p];
    const PathShape shape =
        ShapePath(path, schema, config_.propagation.exclude_start_tuple);
    const std::vector<int>& node_at = shape.node_at;
    const size_t k = path.steps.size();
    const size_t junction = shape.junction;
    std::vector<int32_t> frontier =
        changed[static_cast<size_t>(node_at[k])];
    std::vector<int32_t> junction_dirty;
    if (junction == k) {
      junction_dirty = frontier;
    }
    for (size_t level = k; level >= 1; --level) {
      const JoinStep& step = path.steps[level - 1];
      const int prev_node = node_at[level - 1];
      std::vector<char> mark(
          static_cast<size_t>(link_graph_->NumTuples(prev_node)), 0);
      std::vector<int32_t> prev;
      for (const int32_t t : frontier) {
        const auto preimage = step.forward
                                  ? link_graph_->Reverse(step.edge_id, t)
                                  : link_graph_->Forward(step.edge_id, t);
        for (const int32_t u : preimage) {
          if (!mark[static_cast<size_t>(u)]) {
            mark[static_cast<size_t>(u)] = 1;
            prev.push_back(u);
          }
        }
      }
      for (const int32_t u : changed[static_cast<size_t>(prev_node)]) {
        if (!mark[static_cast<size_t>(u)]) {
          mark[static_cast<size_t>(u)] = 1;
          prev.push_back(u);
        }
      }
      std::sort(prev.begin(), prev.end());
      frontier = std::move(prev);
      if (level - 1 == junction) {
        junction_dirty = frontier;
      }
    }
    const uint64_t path_bit = p < 64 ? uint64_t{1} << p : ~uint64_t{0};
    for (const int32_t r : frontier) {
      dirty_ref[static_cast<size_t>(r)] |= path_bit;
    }
    if (memo_ != nullptr) {
      report.cache_entries_erased +=
          memo_->Erase(static_cast<int>(p), junction_dirty);
    }
  }

  // Dirty names: groups owning a dirty reference. New references are new
  // tuples of the start node, so brand-new names are dirty by definition.
  std::vector<char> group_dirty(name_groups_.size(), 0);
  for (size_t r = 0; r < dirty_ref.size(); ++r) {
    const int64_t group = NameGroupOfRef(static_cast<int64_t>(r));
    if (dirty_ref[r] != 0 && group >= 0) {
      group_dirty[static_cast<size_t>(group)] = 1;
    }
  }
  for (size_t g = 0; g < group_dirty.size(); ++g) {
    if (group_dirty[g]) {
      report.dirty_names.push_back(name_groups_[g].first);
    }
  }
  for (size_t r = 0; r < dirty_ref.size(); ++r) {
    if (dirty_ref[r] != 0) {
      report.dirty_refs.push_back(static_cast<int32_t>(r));
      report.dirty_ref_path_masks.push_back(dirty_ref[r]);
    }
  }

  // Pooled workspaces size their dense slabs at first acquire and never
  // grow them; after the universes grew they would index out of bounds, so
  // the pool is recreated (the memo keeps its surviving entries — those
  // are the expensive part).
  if (workspaces_ != nullptr) {
    workspaces_ = std::make_unique<WorkspacePool>(*link_graph_);
  }

  ++catalog_version_;
  tuple_watermark_ = db.TotalRows();
  report.catalog_version = catalog_version_;
  report.tuple_watermark = tuple_watermark_;
  return report;
}

StatusOr<Distinct::ResolveArtifacts> Distinct::PatchResolveArtifacts(
    ResolveArtifacts cached, const std::vector<int32_t>& refs,
    const std::vector<int32_t>& dirty_refs,
    const std::vector<uint64_t>& dirty_ref_path_masks) {
  const std::vector<int32_t>& old_refs = cached.store.refs();
  if (old_refs.size() > refs.size() ||
      !std::equal(old_refs.begin(), old_refs.end(), refs.begin())) {
    return InvalidArgumentError(
        "PatchResolveArtifacts: cached artifacts do not cover a prefix of "
        "`refs` — append-only deltas keep existing references in place");
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
  for (size_t i = old_n; i < refs.size(); ++i) {
    dirty[i] = 1;
  }

  {
    DISTINCT_TRACE_SPAN("profile_store");
    cached.store.Update(*engine_, paths_, config_.propagation,
                        positions,
                        std::vector<int32_t>(refs.begin() + old_n, refs.end()),
                        pool_.get(), ProfileStore::kMinParallelRefs,
                        memo_.get(), workspaces_.get(),
                        have_masks ? &path_masks : nullptr);
  }
  auto matrices = [&] {
    DISTINCT_TRACE_SPAN("pair_matrix");
    return UpdatePairMatrices(cached.store, model_, dirty, cached.resem,
                              cached.walk, pool_.get());
  }();
  DISTINCT_TRACE_SPAN("cluster");
  ClusteringResult clustering =
      ClusterReferences(matrices.first, matrices.second, cluster_options());
  return ResolveArtifacts{std::move(cached.store), std::move(matrices.first),
                          std::move(matrices.second), std::move(clustering)};
}

StatusOr<std::pair<Database, DatabaseDelta>> MakeTailDelta(
    const Database& db, const std::string& table, int64_t tail_rows) {
  auto target_id = db.TableId(table);
  DISTINCT_RETURN_IF_ERROR(target_id.status());
  const Table& target = db.table(*target_id);
  if (tail_rows < 0 || tail_rows > target.num_rows()) {
    return InvalidArgumentError(StrFormat(
        "tail_rows %lld out of range for %s (%lld rows)",
        static_cast<long long>(tail_rows), table.c_str(),
        static_cast<long long>(target.num_rows())));
  }

  Database base;
  for (int i = 0; i < db.num_tables(); ++i) {
    const Table& src = db.table(i);
    Table copy = src.EmptyCopy();
    const int64_t keep =
        i == *target_id ? src.num_rows() - tail_rows : src.num_rows();
    for (int64_t row = 0; row < keep; ++row) {
      DISTINCT_RETURN_IF_ERROR(copy.AppendRow(src.RowValues(row)).status());
    }
    DISTINCT_RETURN_IF_ERROR(base.AddTable(std::move(copy)).status());
  }

  DatabaseDelta delta;
  for (int64_t row = target.num_rows() - tail_rows; row < target.num_rows();
       ++row) {
    delta.Add(table, target.RowValues(row));
  }
  return std::make_pair(std::move(base), std::move(delta));
}

StatusOr<DatabaseDelta> LoadDatabaseDeltaCsv(const Database& db,
                                             const std::string& directory) {
  std::error_code error;
  if (!std::filesystem::is_directory(directory, error)) {
    return NotFoundError("delta directory '" + directory +
                         "' does not exist");
  }
  DatabaseDelta delta;
  int files_found = 0;
  for (int i = 0; i < db.num_tables(); ++i) {
    const Table& src = db.table(i);
    // Stage through an empty table with the same schema: the CSV header,
    // cell types, and within-file primary-key uniqueness are validated
    // exactly like a full LoadDatabaseCsv (uniqueness against the live
    // database is ApplyDelta's dry run).
    Table staging = src.EmptyCopy();
    auto loaded =
        LoadTableCsv(directory + "/" + src.name() + ".csv", staging);
    if (!loaded.ok()) {
      if (loaded.status().code() == StatusCode::kNotFound) {
        continue;  // a delta need not touch every table
      }
      return loaded.status();
    }
    ++files_found;
    for (int64_t row = 0; row < staging.num_rows(); ++row) {
      delta.Add(src.name(), staging.RowValues(row));
    }
  }
  if (files_found == 0) {
    return NotFoundError("delta directory '" + directory +
                         "' holds no <Table>.csv for any table");
  }
  return delta;
}

Status IncrementalCatalog::Build() {
  resolutions_.clear();
  artifacts_.clear();
  index_.clear();
  // Nothing cached and nothing dirty: Refresh() resolves every name fresh.
  DeltaReport nothing_cached;
  return Refresh(nothing_cached);
}

StatusOr<DeltaReport> IncrementalCatalog::Apply(Database& db,
                                                const DatabaseDelta& delta) {
  auto report = engine_->ApplyDelta(db, delta);
  DISTINCT_RETURN_IF_ERROR(report.status());
  DISTINCT_RETURN_IF_ERROR(Refresh(*report));
  return report;
}

Status IncrementalCatalog::Refresh(DeltaReport& report) {
  std::unordered_set<std::string> dirty(report.dirty_names.begin(),
                                        report.dirty_names.end());

  // A clean name has the same references and the same profiles as before,
  // so its cached clustering is exactly what re-resolving would produce.
  // Dirty names get no merge-replay shortcut: replaying merges is unsound
  // when new evidence lowers a pairwise sum (a past merge may no longer
  // clear the floor), so they are re-seeded from full matrices by the
  // exact clusterer — that is the un-merge/re-seed rule. Their cached
  // matrices are spliced — only cells with an endpoint in the delta's
  // dirty references are recomputed — which is bit-identical to refilling
  // them (every cell is a pure function of its two profiles). A name with
  // nothing cached is resolved fresh.
  auto groups = ScanNameGroups(*engine_, options_);
  DISTINCT_RETURN_IF_ERROR(groups.status());
  std::vector<BulkResolution> next;
  std::vector<Distinct::ResolveArtifacts> next_artifacts;
  std::unordered_map<std::string, size_t> next_index;
  next.reserve(groups->size());
  next_artifacts.reserve(groups->size());
  for (const NameGroup& group : *groups) {
    auto cached = index_.find(group.name);
    next_index.emplace(group.name, next.size());
    if (cached != index_.end() && dirty.count(group.name) == 0) {
      next.push_back(std::move(resolutions_[cached->second]));
      next_artifacts.push_back(std::move(artifacts_[cached->second]));
      ++report.names_reused;
      continue;
    }
    auto resolved =
        cached != index_.end()
            ? engine_->PatchResolveArtifacts(
                  std::move(artifacts_[cached->second]), group.refs,
                  report.dirty_refs, report.dirty_ref_path_masks)
            : engine_->ResolveRefsArtifacts(group.refs);
    DISTINCT_RETURN_IF_ERROR(resolved.status());
    next.push_back(BulkResolution{group.name, group.refs.size(),
                                  resolved->clustering});
    next_artifacts.push_back(*std::move(resolved));
    ++report.names_reresolved;
  }
  resolutions_ = std::move(next);
  artifacts_ = std::move(next_artifacts);
  index_ = std::move(next_index);
  return Status::Ok();
}

}  // namespace distinct
