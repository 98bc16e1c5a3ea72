#include "sim/feature_vector.h"

#include "sim/resemblance.h"
#include "sim/walk_probability.h"

namespace distinct {

PairFeatures ComputePairFeatures(const std::vector<NeighborProfile>& p1,
                                 const std::vector<NeighborProfile>& p2) {
  PairFeatures features;
  features.resemblance.resize(p1.size());
  features.walk.resize(p1.size());
  for (size_t i = 0; i < p1.size(); ++i) {
    features.resemblance[i] = SetResemblance(p1[i], p2[i]);
    features.walk[i] = SymmetricWalkProbability(p1[i], p2[i]);
  }
  return features;
}

}  // namespace distinct
