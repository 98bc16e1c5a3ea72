// Per-pair features: one resemblance and one walk-probability value per
// join path. Training fills them from a ProfileStore with
// FusedPairFeatures (sim/fused_kernel.h); ComputePairFeatures, the
// three-pass form over expanded profiles, is the oracle it is tested
// against.

#ifndef DISTINCT_SIM_FEATURE_VECTOR_H_
#define DISTINCT_SIM_FEATURE_VECTOR_H_

#include <vector>

#include "prop/profile.h"

namespace distinct {

/// Similarities of one reference pair along every join path; the inputs to
/// both the SVM (training) and the similarity model (resolution).
struct PairFeatures {
  std::vector<double> resemblance;  // indexed by path
  std::vector<double> walk;         // indexed by path
};

/// Pair features from two per-path profile vectors (one profile per path,
/// same path order on both sides): SetResemblance and
/// SymmetricWalkProbability on each path. Pure function of its inputs;
/// ReferencePairMatrices, the pair fill's exactness oracle, is built on
/// it, and tests hold FusedPairFeatures to it bit for bit. No engine path
/// calls it.
PairFeatures ComputePairFeatures(const std::vector<NeighborProfile>& p1,
                                 const std::vector<NeighborProfile>& p2);

}  // namespace distinct

#endif  // DISTINCT_SIM_FEATURE_VECTOR_H_
