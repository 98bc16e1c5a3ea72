#include "music/catalog.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include <gtest/gtest.h>

#include "core/distinct.h"
#include "eval/metrics.h"

namespace distinct {
namespace {

MusicConfig SmallConfig(uint64_t seed = 3) {
  MusicConfig config;
  config.seed = seed;
  config.num_artists = 40;
  config.albums_per_artist = 3;
  config.songs_per_artist = 8;
  config.ambiguous = {{"Forgotten", 5, 20}, {"Ember", 2, 6}};
  return config;
}

TEST(MusicCatalogTest, SchemaAndSpecResolve) {
  auto db = MakeEmptyMusicDatabase();
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_tables(), 5);
  EXPECT_TRUE(ResolveReferenceSpec(*db, MusicReferenceSpec()).ok());
  for (const auto& [table, column] : MusicDefaultPromotions()) {
    auto found = db->FindTable(table);
    ASSERT_TRUE(found.ok()) << table;
    EXPECT_TRUE((*found)->ColumnIndex(column).ok()) << table << "." << column;
  }
}

TEST(MusicCatalogTest, IntegrityAndExactCounts) {
  auto dataset = GenerateMusicCatalog(SmallConfig());
  ASSERT_TRUE(dataset.ok());
  EXPECT_TRUE(dataset->db.ValidateIntegrity().ok());
  ASSERT_EQ(dataset->cases.size(), 2u);
  EXPECT_EQ(dataset->cases[0].title, "Forgotten");
  EXPECT_EQ(dataset->cases[0].track_rows.size(), 20u);
  std::set<int> used(dataset->cases[0].truth.begin(),
                     dataset->cases[0].truth.end());
  EXPECT_EQ(used.size(), 5u);  // every planted song has >= 1 track
  EXPECT_EQ(dataset->cases[1].track_rows.size(), 6u);
}

TEST(MusicCatalogTest, OneSongsRowPerDistinctTitle) {
  auto dataset = GenerateMusicCatalog(SmallConfig());
  ASSERT_TRUE(dataset.ok());
  const Table& songs = **dataset->db.FindTable(kSongsTable);
  std::set<std::string> titles;
  const int title_col = *songs.ColumnIndex("title");
  for (int64_t row = 0; row < songs.num_rows(); ++row) {
    EXPECT_TRUE(titles.insert(songs.GetString(row, title_col)).second);
  }
  EXPECT_TRUE(titles.contains("Forgotten"));
}

TEST(MusicCatalogTest, AmbiguousSongsBelongToDistinctArtists) {
  auto dataset = GenerateMusicCatalog(SmallConfig());
  ASSERT_TRUE(dataset.ok());
  const Table& tracks = **dataset->db.FindTable(kTracksTable);
  const Table& albums = **dataset->db.FindTable(kAlbumsTable);
  const int album_col = *tracks.ColumnIndex("album_id");
  const int artist_col = *albums.ColumnIndex("artist_id");
  const MusicCase& c = dataset->cases[0];
  std::unordered_map<int, int64_t> artist_of_song;
  for (size_t i = 0; i < c.track_rows.size(); ++i) {
    const int64_t album = tracks.GetInt(c.track_rows[i], album_col);
    const int64_t album_row = *albums.RowForPrimaryKey(album);
    const int64_t artist = albums.GetInt(album_row, artist_col);
    auto [it, inserted] = artist_of_song.emplace(c.truth[i], artist);
    // All tracks of one real song live on one artist's albums.
    EXPECT_EQ(it->second, artist) << "song " << c.truth[i];
  }
  // And distinct songs belong to distinct artists.
  std::set<int64_t> artists;
  for (const auto& [song, artist] : artist_of_song) {
    EXPECT_TRUE(artists.insert(artist).second);
  }
}

TEST(MusicCatalogTest, DeterministicForSeed) {
  auto a = GenerateMusicCatalog(SmallConfig(9));
  auto b = GenerateMusicCatalog(SmallConfig(9));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->db.TotalRows(), b->db.TotalRows());
  EXPECT_EQ(a->cases[0].track_rows, b->cases[0].track_rows);
  EXPECT_EQ(a->cases[0].truth, b->cases[0].truth);
}

TEST(MusicCatalogTest, RejectsBadConfigs) {
  MusicConfig config = SmallConfig();
  config.num_artists = 0;
  EXPECT_FALSE(GenerateMusicCatalog(config).ok());

  config = SmallConfig();
  config.ambiguous = {{"X", 5, 3}};
  EXPECT_FALSE(GenerateMusicCatalog(config).ok());

  config = SmallConfig();
  config.num_artists = 3;
  config.ambiguous = {{"X", 5, 10}};  // more songs than artists
  EXPECT_FALSE(GenerateMusicCatalog(config).ok());
}

TEST(MusicCatalogTest, DistinctResolvesThePlantedTitle) {
  // The paper's motivating scenario end to end: split the tracks of one
  // shared title by real song, using album/artist/label linkage only.
  auto dataset = GenerateMusicCatalog(SmallConfig());
  ASSERT_TRUE(dataset.ok());

  DistinctConfig config;
  config.supervised = false;  // titles are not person names
  config.promotions = MusicDefaultPromotions();
  auto engine =
      Distinct::Create(dataset->db, MusicReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());

  // min-sim is dataset-specific (the paper calibrates it per database);
  // assert that SOME threshold separates the planted songs near-perfectly
  // — i.e. the linkage signal is there and the engine exposes it.
  const MusicCase& c = dataset->cases[0];
  auto matrices = engine->ResolveRefsArtifacts(c.track_rows);
  ASSERT_TRUE(matrices.ok());
  double best_f1 = 0.0;
  AgglomerativeOptions options = engine->cluster_options();
  for (double min_sim = 1e-4; min_sim < 1.0; min_sim *= 1.5) {
    options.min_sim = min_sim;
    const ClusteringResult clustering =
        ClusterReferences(matrices->resem, matrices->walk, options);
    best_f1 = std::max(
        best_f1, PairwisePrecisionRecall(c.truth, clustering.assignment).f1);
  }
  EXPECT_GT(best_f1, 0.9);
}

}  // namespace
}  // namespace distinct
