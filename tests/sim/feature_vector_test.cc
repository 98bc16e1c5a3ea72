#include "sim/feature_vector.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "prop/propagation.h"
#include "relational/join_path.h"
#include "sim/resemblance.h"

namespace distinct {
namespace {

using testing_util::kWeiWangRef0;
using testing_util::kWeiWangRef1;

class FeatureVectorTest : public ::testing::Test {
 protected:
  FeatureVectorTest() : db_(testing_util::MakeMiniDblp()) {
    auto graph = SchemaGraph::Build(db_);
    schema_ = std::make_unique<SchemaGraph>(*std::move(graph));
    auto link = LinkGraph::Build(*schema_);
    link_ = std::make_unique<LinkGraph>(*std::move(link));
    engine_ = std::make_unique<PropagationEngine>(*link_);

    PathEnumerationOptions options;
    options.max_length = 3;
    paths_ = EnumerateJoinPaths(*schema_, *db_.TableId(kPublishTable),
                                options);
  }

  /// Profiles of `ref` along every path, one PropagationEngine::Compute
  /// per path.
  std::vector<NeighborProfile> Profiles(int32_t ref) const {
    std::vector<NeighborProfile> profiles;
    for (const JoinPath& path : paths_) {
      profiles.push_back(engine_->Compute(path, ref));
    }
    return profiles;
  }

  PairFeatures Features(int32_t ref1, int32_t ref2) const {
    return ComputePairFeatures(Profiles(ref1), Profiles(ref2));
  }

  Database db_;
  std::unique_ptr<SchemaGraph> schema_;
  std::unique_ptr<LinkGraph> link_;
  std::unique_ptr<PropagationEngine> engine_;
  std::vector<JoinPath> paths_;
};

TEST_F(FeatureVectorTest, FeatureWidthMatchesPathCount) {
  const PairFeatures features = Features(kWeiWangRef0, kWeiWangRef1);
  EXPECT_EQ(features.resemblance.size(), paths_.size());
  EXPECT_EQ(features.walk.size(), paths_.size());
}

TEST_F(FeatureVectorTest, FeaturesMatchDirectComputation) {
  const PairFeatures features = Features(kWeiWangRef0, kWeiWangRef1);
  for (size_t p = 0; p < paths_.size(); ++p) {
    const NeighborProfile a = engine_->Compute(paths_[p], kWeiWangRef0);
    const NeighborProfile b = engine_->Compute(paths_[p], kWeiWangRef1);
    EXPECT_DOUBLE_EQ(features.resemblance[p], SetResemblance(a, b));
  }
}

TEST_F(FeatureVectorTest, SymmetricPairs) {
  const PairFeatures ab = Features(kWeiWangRef0, kWeiWangRef1);
  const PairFeatures ba = Features(kWeiWangRef1, kWeiWangRef0);
  for (size_t p = 0; p < paths_.size(); ++p) {
    EXPECT_DOUBLE_EQ(ab.resemblance[p], ba.resemblance[p]);
    EXPECT_DOUBLE_EQ(ab.walk[p], ba.walk[p]);
  }
}

TEST_F(FeatureVectorTest, CoauthorFeatureHandValue) {
  // Refs 0 and 1 share coauthor Jiong Yang:
  // profiles {JY: 1/2} and {HW: 1/3, JY: 1/3} -> resemblance 0.4.
  size_t coauthor_path = paths_.size();
  for (size_t p = 0; p < paths_.size(); ++p) {
    if (paths_[p].Describe(*schema_) ==
        "Publish -paper_id-> Publications <-paper_id- Publish "
        "-author_id-> Authors") {
      coauthor_path = p;
    }
  }
  ASSERT_LT(coauthor_path, paths_.size());
  const PairFeatures features = Features(kWeiWangRef0, kWeiWangRef1);
  EXPECT_NEAR(features.resemblance[coauthor_path], 0.4, 1e-12);
  // Walk: 1/2 * 1/6 each direction -> symmetric 1/12.
  EXPECT_NEAR(features.walk[coauthor_path], 1.0 / 12.0, 1e-12);
}

}  // namespace
}  // namespace distinct
