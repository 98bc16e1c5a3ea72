// DISTINCT: the public entry point of this library.
//
// Typical use:
//   auto dataset = GenerateDblpDataset({});                    // or your DB
//   auto engine = Distinct::Create(dataset->db, DblpReferenceSpec(), {});
//   auto result = engine->ResolveName("Wei Wang");
//   // result->clustering.assignment groups result->refs by real person.
//
// Create() builds the schema/link graphs, enumerates join paths, and (by
// default) constructs the automatic training set and fits the SVM path
// weights — the paper's offline phase. ResolveName()/ResolveRefs() run the
// per-name clustering — the paper's online phase.
//
// The engine is the only builder of what it derives from its database:
// the name index (name -> reference rows, and reference row -> name group)
// and the warm propagation state (the subtree memo and the dense workspace
// pool). Create() builds both and ApplyDelta() keeps them current, so the
// scan filter (core/scan.h) and the server (serve/service.h) read the
// engine's copies instead of rebuilding their own.

#ifndef DISTINCT_CORE_DISTINCT_H_
#define DISTINCT_CORE_DISTINCT_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/agglomerative.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "prop/propagation.h"
#include "relational/join_path.h"
#include "relational/reference_spec.h"
#include "prop/workspace.h"
#include "sim/parallel_kernel.h"
#include "sim/profile_store.h"
#include "sim/similarity_model.h"
#include "svm/linear_svm.h"
#include "train/training_set.h"

namespace distinct {

struct DatabaseDelta;  // core/delta.h
struct DeltaReport;    // core/delta.h

/// Everything configurable about the pipeline. The defaults mirror the
/// paper's setup on DBLP.
struct DistinctConfig {
  // --- Join paths ---
  /// Maximum join-path length ("coauthors of coauthors" needs 4).
  int max_path_length = 4;
  /// Skip paths that start by following the reference's own name edge;
  /// every resembling reference shares that neighbor by definition.
  bool exclude_identity_first_step = true;
  /// Non-key attributes to promote to tuples, as (table, column) pairs.
  /// Empty means none (use DblpDefaultPromotions() for the DBLP set).
  std::vector<std::pair<std::string, std::string>> promotions;
  /// Propagation engine and limits; `propagation.cache_bytes` is the byte
  /// budget of the subtree memo (64 MiB by default, CLI --prop-cache-mb).
  PropagationOptions propagation;

  // --- Path-weight model ---
  /// false: uniform weights (the unsupervised baselines of Fig. 4).
  bool supervised = true;
  TrainingSetOptions training;
  SvmParams svm;

  // --- Clustering ---
  /// Merge floor (the paper's min-sim). Calibrated on the standard
  /// synthetic dataset (see bench_minsim_sweep).
  double min_sim = 3e-2;
  /// Extension: derive min_sim from the training pairs instead of using
  /// the fixed value — the threshold that best classifies the automatic
  /// positive/negative pairs by their composite similarity. Removes the
  /// per-dataset calibration (supervised mode only).
  bool auto_min_sim = false;
  ClusterMeasure measure = ClusterMeasure::kComposite;
  CombineRule combine = CombineRule::kGeometricMean;
  /// When to stop merging: the paper's fixed min-sim floor, or the
  /// threshold-free largest-gap extension.
  StoppingRule stopping = StoppingRule::kFixedThreshold;

  // --- Execution ---
  /// Worker threads for the intra-name similarity kernel: per-reference
  /// profile propagation and the tiled pair-matrix fill both fan out over
  /// one shared pool. 1 keeps everything on the calling thread. Results
  /// are bit-identical across thread counts.
  int num_threads = 1;
  /// Catalog generation stamp carried into checkpoints. When the database
  /// was materialised from an on-disk columnar catalog (catalog/reader.h)
  /// the caller seeds this with the catalog's generation, so --resume and
  /// append --delta reject checkpoints taken against a different ingest
  /// generation even when the row counts happen to agree. 0 (in-memory
  /// datasets) keeps the engine-local versioning that starts at zero and
  /// increments per applied delta.
  int64_t base_catalog_version = 0;
  /// Enables the process-wide metrics registry and span tracer
  /// (src/obs/) for this engine. Create() flips the global obs switch;
  /// when false (the default) every instrumentation site reduces to a
  /// single relaxed load + branch, so benchmark numbers and the
  /// bit-identical parallel-kernel guarantee are unaffected.
  bool observability = false;
};

/// Timings and diagnostics from Create().
struct TrainingReport {
  int num_paths = 0;
  size_t num_training_pairs = 0;
  size_t num_unique_refs = 0;      // distinct references in training pairs
  double seconds_features = 0.0;   // propagation + merges
  double seconds_svm = 0.0;
  double seconds_total = 0.0;
  double train_accuracy_resem = 0.0;  // SVM fit on its own training set
  double train_accuracy_walk = 0.0;
  /// Composite-similarity threshold that best separates the training
  /// pairs; what auto_min_sim installs (0 when not trained).
  double suggested_min_sim = 0.0;
};

/// A trained object-distinction engine bound to one database.
class Distinct {
 public:
  /// Builds graphs, enumerates paths, and fits the model. `db` must outlive
  /// the engine.
  static StatusOr<Distinct> Create(const Database& db,
                                   const ReferenceSpec& spec,
                                   DistinctConfig config = {});

  /// Like Create, but installs a previously trained model (see
  /// sim/similarity_model_io.h) instead of training. The model must have
  /// one weight pair per enumerated join path; when it carries path names
  /// they must match the current schema's paths (drift detection).
  static StatusOr<Distinct> CreateWithModel(const Database& db,
                                            const ReferenceSpec& spec,
                                            DistinctConfig config,
                                            SimilarityModel model);

  Distinct(Distinct&&) = default;
  Distinct& operator=(Distinct&&) = default;
  Distinct(const Distinct&) = delete;
  Distinct& operator=(const Distinct&) = delete;

  /// A resolved name: the references found and their grouping.
  struct ResolveResult {
    std::vector<int32_t> refs;  // rows of the reference table
    ClusteringResult clustering;
  };

  /// Groups every reference carrying `name` (NotFound if the name is
  /// absent).
  StatusOr<ResolveResult> ResolveName(const std::string& name);

  /// Groups an explicit set of (resembling) references.
  StatusOr<ClusteringResult> ResolveRefs(const std::vector<int32_t>& refs);

  /// Everything ResolveRefs computes on the way to a clustering, kept so a
  /// later delta can be spliced in instead of recomputed from scratch: the
  /// profile store (its slices are what the fused kernel reads, and
  /// ProfileStore::Update patches them in place), both pair matrices, and
  /// the clustering itself. The store is the resident cost of the
  /// profiles: 20 bytes per explicit entry plus a 4-byte offset per
  /// (reference, path), or a 40-byte hub slice over a suffix it pins,
  /// each distinct suffix counted once; the matrices are O(refs²) doubles.
  struct ResolveArtifacts {
    ProfileStore store;
    PairMatrix resem;
    PairMatrix walk;
    ClusteringResult clustering;
  };

  /// ResolveRefs, returning the intermediate artifacts for caching (the
  /// clustering inside is exactly what ResolveRefs(refs) returns).
  StatusOr<ResolveArtifacts> ResolveRefsArtifacts(
      const std::vector<int32_t>& refs);

  /// Splice-updates `cached` (artifacts over a prefix of `refs`) after an
  /// ApplyDelta: recomputes only the profiles of references listed in
  /// `dirty_refs` (sorted row ids — DeltaReport::dirty_refs) plus the
  /// appended suffix, patches the pair-matrix cells with a dirty endpoint,
  /// and re-clusters. `dirty_ref_path_masks` (optional, aligned with
  /// `dirty_refs` — DeltaReport::dirty_ref_path_masks) further restricts
  /// each dirty reference's profile recompute to the flagged paths; empty
  /// means all paths. Bit-identical to ResolveRefsArtifacts(refs), at cost
  /// proportional to the dirty rows rather than the whole group.
  /// InvalidArgument when cached.store.refs() is not a prefix of `refs`
  /// (append-only deltas keep existing references in place).
  StatusOr<ResolveArtifacts> PatchResolveArtifacts(
      ResolveArtifacts cached, const std::vector<int32_t>& refs,
      const std::vector<int32_t>& dirty_refs,
      const std::vector<uint64_t>& dirty_ref_path_masks = {});

  /// Ingests appended rows without rebuilding the engine. `db` must be the
  /// database this engine was created over; `delta` holds rows to append
  /// per table. The delta is validated (arity, types, primary-key
  /// uniqueness, foreign-key resolvability — against existing and pending
  /// rows alike) before anything mutates, so a bad delta leaves database
  /// and engine untouched. On success the link graph is extended in place,
  /// the name index absorbs the new name/reference rows, stale subtree
  /// memo entries are dropped, and the report lists every name whose
  /// evidence changed (and therefore must be re-resolved — see
  /// core/delta.h's IncrementalCatalog for the cached-resolution layer).
  /// Resolutions computed after ApplyDelta are bit-identical to a fresh
  /// Create() over the appended database with the same model.
  StatusOr<DeltaReport> ApplyDelta(Database& db, const DatabaseDelta& delta);

  /// Bumped once per successful ApplyDelta (0 at Create).
  int64_t catalog_version() const { return catalog_version_; }
  /// Total database rows covered by the current catalog state; checkpoints
  /// record it so --resume can reject plans that predate appended data.
  int64_t tuple_watermark() const { return tuple_watermark_; }

  /// Pairwise model-combined similarity matrices for `refs` — (set
  /// resemblance, random walk). Useful for min-sim sweeps: compute once,
  /// cluster many times with ClusterReferences(). Every cell carries its
  /// exact value, below config.min_sim too. ResolveRefs clusters exactly
  /// these matrices.
  StatusOr<std::pair<PairMatrix, PairMatrix>> ComputeMatrices(
      const std::vector<int32_t>& refs);

  /// All reference rows whose name equals `name` (possibly empty). Served
  /// from the name index built at Create() time — no table scan per query.
  StatusOr<std::vector<int32_t>> RefsForName(const std::string& name) const;

  /// Every (name, reference rows) group in name-table row order, built once
  /// at Create() time. Rows of several same-named name-table entries are
  /// one group. ScanNameGroups(engine, ...) filters this index instead of
  /// rescanning the database.
  const std::vector<std::pair<std::string, std::vector<int32_t>>>&
  name_groups() const {
    return name_groups_;
  }

  /// Position in name_groups() of the group holding reference row `row`;
  /// -1 when the row is out of range or carries no indexed name.
  int64_t NameGroupOfRef(int64_t row) const {
    return row >= 0 && row < static_cast<int64_t>(group_of_ref_.size())
               ? group_of_ref_[static_cast<size_t>(row)]
               : -1;
  }

  const DistinctConfig& config() const { return config_; }
  const std::vector<JoinPath>& paths() const { return paths_; }
  /// The stateless propagation engine; safe to share across threads (build
  /// a shared ProfileStore on top of it).
  const PropagationEngine& propagation_engine() const { return *engine_; }
  const SimilarityModel& model() const { return model_; }
  const TrainingReport& report() const { return report_; }
  const SchemaGraph& schema_graph() const { return *schema_graph_; }

  /// The engine-lifetime subtree memo and dense workspace pool, built at
  /// Create(); both null under PropagationAlgorithm::kDepthFirst. The memo
  /// is safe for concurrent use and the pool is a locked free-list, so a
  /// server may propagate on them from many threads. ApplyDelta erases the
  /// memo entries its delta dirtied and replaces the pool (dense slabs are
  /// sized to the tuple universes at first acquire), so fetch the pool per
  /// use rather than keeping the pointer across a delta.
  SubtreeCache* memo() const { return memo_.get(); }
  WorkspacePool* workspaces() const { return workspaces_.get(); }

  /// Clustering options derived from config (measure/combine/min_sim).
  AgglomerativeOptions cluster_options() const;

  /// Default pair-kernel options, whatever the argument. Kept only because
  /// bench/e2e/harness.cc calls it; it goes with the next benchmark change,
  /// together with PropagationAlgorithm.
  PairKernelOptions kernel_options(bool /*for_clustering*/) const {
    return {};
  }

 private:
  Distinct() = default;

  /// Builds the profiles of `refs` on the engine's pool, memo and
  /// workspaces.
  ProfileStore BuildProfileStore(const std::vector<int32_t>& refs);

  /// Absorbs name-table rows from `first_name_row` and reference-table
  /// rows from `first_ref_row` into the name index, in first-seen order.
  /// Create() absorbs every row; ApplyDelta() absorbs the appended ones,
  /// which grows the index to exactly what a fresh Create() over the
  /// appended database builds.
  void AbsorbNameRows(int64_t first_name_row, int64_t first_ref_row);

  const Database* db_ = nullptr;
  ResolvedReferenceSpec resolved_;
  DistinctConfig config_;
  // unique_ptr keeps addresses stable across moves (members hold borrowed
  // pointers to each other).
  std::unique_ptr<SchemaGraph> schema_graph_;
  std::unique_ptr<LinkGraph> link_graph_;
  std::unique_ptr<PropagationEngine> engine_;
  std::vector<JoinPath> paths_;
  SimilarityModel model_;
  TrainingReport report_;
  /// Kernel pool, created at Create() when config.num_threads > 1; null in
  /// serial mode.
  std::unique_ptr<ThreadPool> pool_;
  /// name -> position in name_groups_ (groups in name-table row order).
  std::vector<std::pair<std::string, std::vector<int32_t>>> name_groups_;
  std::unordered_map<std::string, size_t> name_index_;
  /// name-table primary key -> position in name_groups_; lets ApplyDelta
  /// route appended reference rows to their group without a rescan.
  std::unordered_map<int64_t, size_t> name_group_of_pk_;
  /// reference row -> position in name_groups_, or -1 (NameGroupOfRef).
  std::vector<int32_t> group_of_ref_;
  /// Engine-lifetime subtree memo + workspace pool (kWorkspace only), so
  /// warm suffix distributions survive across queries; ApplyDelta erases
  /// only the entries its delta dirtied and recreates the workspaces
  /// (their dense slabs are sized at first acquire and never grow).
  std::unique_ptr<SubtreeCache> memo_;
  std::unique_ptr<WorkspacePool> workspaces_;
  int64_t catalog_version_ = 0;
  int64_t tuple_watermark_ = 0;
};

}  // namespace distinct

#endif  // DISTINCT_CORE_DISTINCT_H_
