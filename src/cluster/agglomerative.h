// DISTINCT's agglomerative clustering of references (paper §4).
//
// Starts from singleton clusters and repeatedly merges the most similar
// pair until the best similarity drops below `min_sim`. Cluster similarity
// is the composite measure
//   Sim(C1, C2) = sqrt(Resem(C1, C2) · WalkProb(C1, C2))
// where Resem is the Average-Link set resemblance and WalkProb the
// collective random walk probability (each cluster treated as one object).
// Merges are incremental (§4.2): the engine maintains the pairwise sums
//   sumR(Ca, Cb) = Σ resem(i, j),  sumW(Ca, Cb) = Σ walk(i, j)
// and folds sum(C1∪C2, Ci) = sum(C1, Ci) + sum(C2, Ci) at each merge, so a
// merge costs O(active clusters) instead of O(|C1|·|C2|) recomputation.

#ifndef DISTINCT_CLUSTER_AGGLOMERATIVE_H_
#define DISTINCT_CLUSTER_AGGLOMERATIVE_H_

#include <string>
#include <vector>

#include "cluster/pair_matrix.h"

namespace distinct {

/// Which cluster-similarity measure drives merging. The single-measure
/// modes are the Fig. 4 baselines.
enum class ClusterMeasure {
  kComposite,         // sqrt(avg resemblance · collective walk)
  kResemblanceOnly,   // Average-Link set resemblance
  kWalkOnly,          // collective random walk probability
};

/// How the two measures are combined in kComposite mode. The paper argues
/// for the geometric mean (arithmetic averaging lets the larger-scaled
/// measure drown the other); the arithmetic option exists for the ablation.
enum class CombineRule {
  kGeometricMean,
  kArithmeticMean,
};

/// When to stop merging.
enum class StoppingRule {
  /// The paper's rule: stop when the best similarity drops below min_sim.
  kFixedThreshold,
  /// Threshold-free extension: run the merge sequence down to min_sim,
  /// then cut it at the largest relative drop between consecutive merge
  /// similarities. Removes the per-dataset min-sim calibration at a small
  /// accuracy cost (see bench_ablation_stopping).
  kLargestGap,
};

struct AgglomerativeOptions {
  /// Merge floor: no merge below it under either stopping rule.
  double min_sim = 5e-4;
  ClusterMeasure measure = ClusterMeasure::kComposite;
  CombineRule combine = CombineRule::kGeometricMean;
  StoppingRule stopping = StoppingRule::kFixedThreshold;
  /// kLargestGap only: the minimum relative drop between consecutive merge
  /// similarities that counts as "the" gap; no cut is made when every drop
  /// is below it.
  double gap_factor = 3.0;
  /// When false, pairwise sums are recomputed from the base matrices at
  /// every step (the paper's strawman; exists for the cost ablation).
  bool incremental = true;
};

/// One executed merge (references by their pre-merge cluster slots, which
/// equal reference indices for singletons).
struct MergeStep {
  int into = -1;    // surviving slot
  int from = -1;    // absorbed slot
  double similarity = 0.0;

  bool operator==(const MergeStep&) const = default;
};

/// A flat clustering plus the dendrogram (merge sequence) that produced it.
struct ClusteringResult {
  /// assignment[i] = dense cluster id of reference i.
  std::vector<int> assignment;
  int num_clusters = 0;
  int num_merges = 0;
  /// The executed merges in order; merges.size() == num_merges.
  std::vector<MergeStep> merges;

  /// Exact equality: the same assignment and the same merge sequence, with
  /// merge similarities compared exactly (no tolerance).
  bool operator==(const ClusteringResult&) const = default;

  std::string DebugString() const;
};

/// Clusters `resem.size()` references. `resem` and `walk` must be the same
/// size; `walk` is ignored in kResemblanceOnly mode and `resem` in kWalkOnly
/// mode (pass either matrix twice if only one is available).
ClusteringResult ClusterReferences(const PairMatrix& resem,
                                   const PairMatrix& walk,
                                   const AgglomerativeOptions& options);

}  // namespace distinct

#endif  // DISTINCT_CLUSTER_AGGLOMERATIVE_H_
