// Phase 2 of the parallel intra-name similarity kernel: fill the
// model-combined resemblance and walk PairMatrix over the strict lower
// triangle from a ProfileStore.
//
// The triangle is cut into square tiles and the tiles are enumerated in a
// fixed order (tile t covers block row t_i, block column t_j <= t_i), so
// every (i, j) slot belongs to exactly one tile — the fill is race-free by
// construction. Each cell depends only on the two profiles and the model,
// never on neighbouring cells or on scheduling, so the parallel result is
// bit-identical to the serial loop at any thread count.
//
// The fused kernel fills the cells (fused_kernel.h documents it): it
// flattens the store into a ProfileArena, builds the per-path candidate
// bits from inverted indexes, and computes each cell with one merge-join
// per path on which the pair shares a tuple (cells with none stay at the
// 0.0 init, which is exactly their value). Every cell carries its exact
// value, below the clusterer's merge floor too. ReferencePairMatrices is
// the exactness oracle the fused fill is tested against: three sorted
// merges per (pair, path) over the array-of-structs profiles.

#ifndef DISTINCT_SIM_PARALLEL_KERNEL_H_
#define DISTINCT_SIM_PARALLEL_KERNEL_H_

#include <utility>

#include "cluster/pair_matrix.h"
#include "common/cancel.h"
#include "common/thread_pool.h"
#include "sim/fused_kernel.h"
#include "sim/profile_store.h"
#include "sim/similarity_model.h"

namespace distinct {

struct PairKernelOptions {
  /// Side length of the square tiles the lower triangle is cut into. One
  /// tile is one task: big enough to amortize scheduling, small enough
  /// that a mega-name yields many more tiles than threads.
  int tile_size = 64;
  /// Below this many references the fill runs inline even when a pool is
  /// supplied.
  int min_parallel_refs = 32;
  /// Sparse-vs-bitset thresholds for CandidateSet::Build.
  CandidateBuildOptions candidates;
  /// Cooperative cancellation, checked per row on the serial path and per
  /// tile on the parallel one (never per cell — the hot loop stays
  /// branch-identical between a null and a live-but-unfired token). When
  /// the token fires mid-fill the remaining rows/tiles are skipped and
  /// `cancel->aborted()` reads true; the half-filled matrices must then be
  /// discarded. A null or never-fired token leaves results bit-identical.
  const CancelToken* cancel = nullptr;
};

/// Computes (resemblance, walk) matrices for the store's references. With a
/// non-null `pool`, tiles are filled in parallel; safe to call from inside
/// a pool task (nested parallelism via ParallelForShared).
std::pair<PairMatrix, PairMatrix> ComputePairMatrices(
    const ProfileStore& store, const SimilarityModel& model,
    ThreadPool* pool = nullptr, const PairKernelOptions& options = {});

class ProfileArena;

/// As above, with a caller-supplied arena over the same store (the fill
/// skips its internal flatten). Callers that keep artifacts
/// resident build the arena once and patch it across deltas.
std::pair<PairMatrix, PairMatrix> ComputePairMatrices(
    const ProfileStore& store, const ProfileArena& arena,
    const SimilarityModel& model, ThreadPool* pool = nullptr,
    const PairKernelOptions& options = {});

/// Patches cached matrices after a database delta instead of refilling
/// the whole triangle. `store` is the spliced-updated store (see
/// ProfileStore::Update) and `arena` its flattened counterpart (FromStore
/// or PatchFromStore — callers that cache artifacts patch instead of
/// re-flattening); `dirty[i]` marks the positions whose profiles were
/// recomputed — appended references (positions >= old_resem.size()) must
/// all be marked. Cells whose endpoints are both clean are copied from
/// the old matrices (their profiles are unchanged and a cell depends only
/// on its two profiles and the model); cells with a dirty endpoint are
/// recomputed by the same per-cell kernel as ComputePairMatrices. The
/// result is bit-identical to a full ComputePairMatrices over `store`.
std::pair<PairMatrix, PairMatrix> UpdatePairMatrices(
    const ProfileStore& store, const ProfileArena& arena,
    const SimilarityModel& model, const std::vector<char>& dirty,
    const PairMatrix& old_resem, const PairMatrix& old_walk,
    ThreadPool* pool = nullptr, const PairKernelOptions& options = {});

/// The exactness oracle: fills every cell serially from
/// ProfileStore::Features (three sorted merges per (pair, path)) and the
/// model. ComputePairMatrices must match it bit for bit; tests and benches
/// call it, the engine never does.
std::pair<PairMatrix, PairMatrix> ReferencePairMatrices(
    const ProfileStore& store, const SimilarityModel& model);

}  // namespace distinct

#endif  // DISTINCT_SIM_PARALLEL_KERNEL_H_
