#include "sim/similarity_model_io.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/io_util.h"

namespace distinct {
namespace {

SimilarityModel MakeModel() {
  return SimilarityModel({0.5, 0.25, 0.25}, {0.9, 0.05, 0.05},
                         {"Publish -paper-> Publications",
                          "a path with spaces in it",
                          "another -> path"});
}

TEST(SimilarityModelIoTest, RoundTripExact) {
  const SimilarityModel model = MakeModel();
  auto parsed = ParseSimilarityModel(SerializeSimilarityModel(model));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->num_paths(), 3u);
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_DOUBLE_EQ(parsed->resem_weights()[p], model.resem_weights()[p]);
    EXPECT_DOUBLE_EQ(parsed->walk_weights()[p], model.walk_weights()[p]);
    EXPECT_EQ(parsed->path_names()[p], model.path_names()[p]);
  }
}

TEST(SimilarityModelIoTest, TinyWeightsSurvive) {
  const SimilarityModel model({1e-300, 0.1}, {2.5e-17, 1.0},
                              {"p0", "p1"});
  auto parsed = ParseSimilarityModel(SerializeSimilarityModel(model));
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->resem_weights()[0], 1e-300);
  EXPECT_DOUBLE_EQ(parsed->walk_weights()[0], 2.5e-17);
}

TEST(SimilarityModelIoTest, UnnamedModelGetsPlaceholders) {
  const SimilarityModel model({0.5, 0.5}, {0.5, 0.5});
  auto parsed = ParseSimilarityModel(SerializeSimilarityModel(model));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->path_names()[1], "path 1");
}

TEST(SimilarityModelIoTest, CommentsIgnored) {
  std::string text = SerializeSimilarityModel(MakeModel());
  text = "# produced by a test\n" + text + "# trailing comment\n";
  EXPECT_TRUE(ParseSimilarityModel(text).ok());
}

TEST(SimilarityModelIoTest, RejectsCorruption) {
  EXPECT_FALSE(ParseSimilarityModel("").ok());
  EXPECT_FALSE(ParseSimilarityModel("bogus header\npaths 0\n").ok());
  EXPECT_FALSE(
      ParseSimilarityModel("distinct-similarity-model v1\npaths x\n").ok());
  EXPECT_FALSE(
      ParseSimilarityModel("distinct-similarity-model v1\npaths 2\n"
                           "0.5 0.5\tonly one\n")
          .ok());
  // Missing tab separator.
  EXPECT_FALSE(
      ParseSimilarityModel("distinct-similarity-model v1\npaths 1\n"
                           "0.5 0.5 name\n")
          .ok());
  // Malformed weight.
  EXPECT_FALSE(
      ParseSimilarityModel("distinct-similarity-model v1\npaths 1\n"
                           "zz 0.5\tname\n")
          .ok());
  // One weight only.
  EXPECT_FALSE(
      ParseSimilarityModel("distinct-similarity-model v1\npaths 1\n"
                           "0.5\tname\n")
          .ok());
}

TEST(SimilarityModelIoTest, FileRoundTrip) {
  const std::string path =
      ::testing::TempDir() + "/similarity_model_test.txt";
  ASSERT_TRUE(SaveSimilarityModel(MakeModel(), path).ok());
  auto loaded = LoadSimilarityModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_paths(), 3u);
  std::remove(path.c_str());
}

TEST(SimilarityModelIoTest, MissingFile) {
  EXPECT_EQ(LoadSimilarityModel("/no/such/model").status().code(),
            StatusCode::kNotFound);
}

// A read that fails is reported as the read error, not parsed as an empty
// model file.
TEST(SimilarityModelIoTest, ReadErrorIsNotAnEmptyFile) {
  const auto loaded = LoadSimilarityModel(::testing::TempDir());
  ASSERT_FALSE(loaded.ok());
  const std::string message = loaded.status().message();
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << message;
  EXPECT_NE(message.find("read of"), std::string::npos) << message;
  EXPECT_EQ(message.find("header"), std::string::npos) << message;
}

// Saving replaces the old model file whole: exactly the new bytes, and no
// temporary file left beside it.
TEST(SimilarityModelIoTest, SaveReplacesAnExistingModel) {
  const std::string path =
      ::testing::TempDir() + "/similarity_model_replace_test.txt";
  ASSERT_TRUE(
      WriteStringToFile(path, std::string(4096, 'x') + "\nold model\n").ok());
  const SimilarityModel model = MakeModel();
  ASSERT_TRUE(SaveSimilarityModel(model, path).ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, SerializeSimilarityModel(model));
  EXPECT_EQ(ReadFileToString(path + ".tmp").status().code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace distinct
