#include "sim/parallel_kernel.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <vector>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "sim/fused_kernel.h"
#include "sim/profile_arena.h"

namespace distinct {

namespace {

/// Flushes one tile's (or one serial fill's) count of merge-joins run, so
/// the hot loop never touches a shared counter.
void FlushPathJoins(int64_t path_joins) {
  if (path_joins > 0) {
    DISTINCT_COUNTER_ADD("sim.path_joins", path_joins);
  }
}

/// Runs `fill_row(i, j_begin, j_end, &path_joins)` over row segments that
/// together cover every strict-lower-triangle cell exactly once — serially,
/// or tiled over the pool — in an order-independent way. A segment may be
/// empty (row 0 on the serial path).
template <typename FillRow>
void ForEachRowSegment(size_t n, ThreadPool* pool,
                       const PairKernelOptions& options,
                       const FillRow& fill_row) {
  const CancelToken* cancel = options.cancel;
  if (pool == nullptr ||
      n < static_cast<size_t>(std::max(options.min_parallel_refs, 0))) {
    int64_t path_joins = 0;
    for (size_t i = 0; i < n; ++i) {
      if (cancel != nullptr && cancel->CheckAbort()) {
        break;
      }
      fill_row(i, size_t{0}, i, &path_joins);
    }
    FlushPathJoins(path_joins);
    return;
  }

  const size_t tile = static_cast<size_t>(std::max(options.tile_size, 1));
  const size_t blocks = (n + tile - 1) / tile;
  std::vector<std::pair<uint32_t, uint32_t>> tiles;
  tiles.reserve(blocks * (blocks + 1) / 2);
  for (size_t bi = 0; bi < blocks; ++bi) {
    for (size_t bj = 0; bj <= bi; ++bj) {
      tiles.emplace_back(static_cast<uint32_t>(bi),
                         static_cast<uint32_t>(bj));
    }
  }
  ParallelForShared(*pool, static_cast<int64_t>(tiles.size()),
                    [&](int64_t t) {
                      if (cancel != nullptr && cancel->CheckAbort()) {
                        return;
                      }
                      const auto [bi, bj] = tiles[static_cast<size_t>(t)];
                      const size_t i_end = std::min(n, (bi + 1) * tile);
                      const size_t j_begin = bj * tile;
                      int64_t path_joins = 0;
                      for (size_t i = bi * tile; i < i_end; ++i) {
                        const size_t j_end =
                            std::min<size_t>((bj + 1) * tile, i);
                        if (j_begin < j_end) {
                          fill_row(i, j_begin, j_end, &path_joins);
                        }
                      }
                      DISTINCT_COUNTER_ADD("sim.tiles_filled", 1);
                      FlushPathJoins(path_joins);
                    });
}

/// When `recompute` is non-null, only cells with at least one endpoint
/// marked in it are (re)filled; the caller has copied every clean-pair
/// cell verbatim (UpdatePairMatrices). Each cell depends only on its two
/// profiles and the model, so the partial fill is bit-identical to a full
/// one on the marked cells.
void FillFused(const ProfileArena& arena, const SimilarityModel& model,
               ThreadPool* pool, const PairKernelOptions& options,
               PairMatrix* resem, PairMatrix* walk,
               const std::vector<char>* recompute = nullptr) {
  Stopwatch kernel_watch;
  // A full fill builds the complete candidate set; the partial fill builds
  // the dirty-restricted one — full Build costs O(members^2) per tuple
  // group, which on a mega-name outweighs the joins a few dirty rows save.
  // BuildPartial never marks a clean-clean cell, so its bits alone keep
  // the refill off the cells UpdatePairMatrices copied.
  // No trace span here: FillFused runs inside parallel-scan worker
  // lambdas, which must record only commutative counters (scan.cc pins
  // "one span per bulk run" at any thread count).
  const bool full_fill = recompute == nullptr;
  const CandidateSet candidates =
      full_fill ? CandidateSet::Build(arena, options.candidates)
                : CandidateSet::BuildPartial(arena, *recompute);
  // Weighted per-path accumulation in path order — the same floating-point
  // op sequence as SimilarityModel::Resemblance/Walk over a PairFeatures
  // vector, without materializing one per pair.
  const std::vector<double>& resem_weights = model.resem_weights();
  const std::vector<double>& walk_weights = model.walk_weights();
  const size_t num_paths = arena.num_paths();
  const size_t n = arena.num_refs();

  // Only paths on which some pair shares a tuple can contribute, and a
  // cell runs the merge-join of path P only when its bit of P is set. A
  // skipped (pair, P) shares no tuple: both features are +0.0, so
  // weight · (+0.0) is a signed zero, and adding a signed zero to a running
  // sum that starts at +0.0 (and so is never −0.0) leaves its bits as they
  // were. Visiting the set paths in ascending order therefore reproduces
  // the all-path accumulation bit for bit; a cell with no bit at all stays
  // at the 0.0 init, which max(+0.0, 0.0) would have written anyway.
  std::vector<size_t> live;
  for (size_t p = 0; p < num_paths; ++p) {
    if (candidates.has_path(p)) {
      live.push_back(p);
    }
  }
  // The per-cell path set is one word for <= 64 live paths (the schema
  // walk is depth-bounded, so always in practice); beyond that a cell in
  // the union falls back to joining every path.
  const bool use_path_sets = live.size() <= 64;

  const auto fill_cell = [&](size_t i, size_t j, uint64_t paths,
                             int64_t* path_joins) {
    double resem_sim = 0.0;
    double walk_sim = 0.0;
    if (use_path_sets) {
      for (uint64_t m = paths; m != 0; m &= m - 1) {
        const size_t p = live[static_cast<size_t>(std::countr_zero(m))];
        const uint64_t rest = m & (m - 1);
        if (rest != 0) {
          // Overlap the next path's slice loads with this join.
          const ProfileArena::Path& next =
              arena.path(live[static_cast<size_t>(std::countr_zero(rest))]);
          __builtin_prefetch(next.tuples.data() + next.offsets[i]);
          __builtin_prefetch(next.tuples.data() + next.offsets[j]);
        }
        const FusedPathFeatures features = FusedMergeJoin(arena.path(p), i, j);
        resem_sim += resem_weights[p] * features.resemblance;
        walk_sim += walk_weights[p] * features.walk;
      }
      *path_joins += std::popcount(paths);
    } else {
      for (size_t p = 0; p < num_paths; ++p) {
        const FusedPathFeatures features = FusedMergeJoin(arena.path(p), i, j);
        resem_sim += resem_weights[p] * features.resemblance;
        walk_sim += walk_weights[p] * features.walk;
      }
      *path_joins += static_cast<int64_t>(num_paths);
    }
    resem->set(i, j, std::max(resem_sim, 0.0));
    walk->set(i, j, std::max(walk_sim, 0.0));
  };
  ForEachRowSegment(
      n, pool, options,
      [&](size_t i, size_t j_begin, size_t j_end, int64_t* path_joins) {
        // Up to 64 cells at a time: one window per live path, their OR
        // picks the cells to visit, and bit b of every window transposes
        // into cell b's path set.
        const size_t row_base = i * (i - 1) / 2;
        uint64_t window[64];
        for (size_t j0 = j_begin; j0 < j_end; j0 += 64) {
          const size_t len = std::min<size_t>(64, j_end - j0);
          uint64_t any = 0;
          for (size_t k = 0; k < live.size(); ++k) {
            const uint64_t w = candidates.Window(live[k], row_base + j0, len);
            if (use_path_sets) {
              window[k] = w;
            }
            any |= w;
          }
          for (; any != 0; any &= any - 1) {
            const int b = std::countr_zero(any);
            uint64_t paths = 0;
            if (use_path_sets) {
              for (size_t k = 0; k < live.size(); ++k) {
                paths |= ((window[k] >> b) & 1) << k;
              }
            }
            fill_cell(i, j0 + static_cast<size_t>(b), paths, path_joins);
          }
        }
      });

  if (full_fill) {
    DISTINCT_COUNTER_ADD("sim.candidate_pairs", candidates.count());
  }
  DISTINCT_HISTOGRAM_RECORD("sim.kernel_ns", kernel_watch.ElapsedNanos());
}

}  // namespace

std::pair<PairMatrix, PairMatrix> ComputePairMatrices(
    const ProfileStore& store, const SimilarityModel& model,
    ThreadPool* pool, const PairKernelOptions& options) {
  return ComputePairMatrices(store, ProfileArena::FromStore(store), model,
                             pool, options);
}

std::pair<PairMatrix, PairMatrix> ComputePairMatrices(
    const ProfileStore& store, const ProfileArena& arena,
    const SimilarityModel& model, ThreadPool* pool,
    const PairKernelOptions& options) {
  // Metrics are aggregated per fill (and per tile above), never per cell,
  // so the instrumented hot loop is byte-for-byte the uninstrumented one.
  Stopwatch watch;
  const size_t n = store.num_refs();
  PairMatrix resem(n);
  PairMatrix walk(n);
  FillFused(arena, model, pool, options, &resem, &walk);
  DISTINCT_COUNTER_ADD("sim.matrix_fills", 1);
  DISTINCT_COUNTER_ADD("sim.pairs_computed",
                       static_cast<int64_t>(n < 2 ? 0 : n * (n - 1) / 2));
  DISTINCT_HISTOGRAM_RECORD("sim.pair_matrix_nanos", watch.ElapsedNanos());
  return std::make_pair(std::move(resem), std::move(walk));
}

std::pair<PairMatrix, PairMatrix> UpdatePairMatrices(
    const ProfileStore& store, const ProfileArena& arena,
    const SimilarityModel& model, const std::vector<char>& dirty,
    const PairMatrix& old_resem, const PairMatrix& old_walk,
    ThreadPool* pool, const PairKernelOptions& options) {
  Stopwatch watch;
  const size_t n = store.num_refs();
  const size_t old_n = old_resem.size();
  PairMatrix resem(n);
  PairMatrix walk(n);

  // Clean-pair cells are carried over verbatim: neither profile changed,
  // and a cell is a pure function of its two profiles and the model.
  // Every other cell starts at the 0.0 init and is recomputed below —
  // copying dirty cells too would leave stale values wherever the fill
  // legitimately skips (a dirty pair whose tuple overlap vanished).
  int64_t copied = 0;
  for (size_t i = 1; i < old_n; ++i) {
    if (dirty[i]) {
      continue;
    }
    for (size_t j = 0; j < i; ++j) {
      if (dirty[j]) {
        continue;
      }
      resem.set(i, j, old_resem.at(i, j));
      walk.set(i, j, old_walk.at(i, j));
      ++copied;
    }
  }

  FillFused(arena, model, pool, options, &resem, &walk, &dirty);

  DISTINCT_COUNTER_ADD("sim.matrix_updates", 1);
  DISTINCT_COUNTER_ADD("sim.pairs_carried_over", copied);
  DISTINCT_HISTOGRAM_RECORD("sim.pair_matrix_nanos", watch.ElapsedNanos());
  return std::make_pair(std::move(resem), std::move(walk));
}

std::pair<PairMatrix, PairMatrix> ReferencePairMatrices(
    const ProfileStore& store, const SimilarityModel& model) {
  const size_t n = store.num_refs();
  PairMatrix resem(n);
  PairMatrix walk(n);
  for (size_t i = 1; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) {
      const PairFeatures features = store.Features(i, j);
      resem.set(i, j, model.Resemblance(features));
      walk.set(i, j, model.Walk(features));
    }
  }
  return std::make_pair(std::move(resem), std::move(walk));
}

}  // namespace distinct
