// Shared test fixtures: a hand-built miniature DBLP database (modeled on
// the paper's Fig. 1) whose propagation probabilities are small enough to
// verify by hand, and the profiles the exactness oracles read.

#ifndef DISTINCT_TESTS_TEST_UTIL_H_
#define DISTINCT_TESTS_TEST_UTIL_H_

#include <vector>

#include "common/logging.h"
#include "core/distinct.h"
#include "dblp/schema.h"
#include "prop/profile.h"
#include "relational/database.h"

namespace distinct {
namespace testing_util {

/// Author rows in the mini database.
inline constexpr int64_t kWeiWang = 0;
inline constexpr int64_t kJiongYang = 1;
inline constexpr int64_t kJianPei = 2;
inline constexpr int64_t kHaixunWang = 3;
inline constexpr int64_t kAidongZhang = 4;

/// Publish rows that are "Wei Wang" references.
inline constexpr int32_t kWeiWangRef0 = 0;  // paper 0 (VLDB 1997)
inline constexpr int32_t kWeiWangRef1 = 2;  // paper 1 (SIGMOD 2002)
inline constexpr int32_t kWeiWangRef2 = 6;  // paper 2 (ICDE 2001)

/// Builds:
///   Authors: Wei Wang, Jiong Yang, Jian Pei, Haixun Wang, Aidong Zhang
///   Conferences: VLDB(P1), SIGMOD(P1), ICDE(P2)
///   Proceedings: (VLDB,1997,CityA), (SIGMOD,2002,CityB), (ICDE,2001,CityA)
///   Publications: paper0@VLDB97, paper1@SIGMOD02, paper2@ICDE01
///   Publish: p0:{WW, JY}, p1:{WW, HW, JY}, p2:{JP, WW}
/// Wei Wang has three references (rows 0, 2, 6).
inline Database MakeMiniDblp() {
  auto db_or = MakeEmptyDblpDatabase();
  DISTINCT_CHECK(db_or.ok());
  Database db = *std::move(db_or);

  Table* authors = *db.FindMutableTable(kAuthorsTable);
  const char* names[] = {"Wei Wang", "Jiong Yang", "Jian Pei",
                         "Haixun Wang", "Aidong Zhang"};
  for (int64_t i = 0; i < 5; ++i) {
    DISTINCT_CHECK(
        authors->AppendRow({Value::Int(i), Value::Str(names[i])}).ok());
  }

  Table* conferences = *db.FindMutableTable(kConferencesTable);
  DISTINCT_CHECK(conferences
                     ->AppendRow({Value::Int(0), Value::Str("VLDB"),
                                  Value::Str("P1")})
                     .ok());
  DISTINCT_CHECK(conferences
                     ->AppendRow({Value::Int(1), Value::Str("SIGMOD"),
                                  Value::Str("P1")})
                     .ok());
  DISTINCT_CHECK(conferences
                     ->AppendRow({Value::Int(2), Value::Str("ICDE"),
                                  Value::Str("P2")})
                     .ok());

  Table* proceedings = *db.FindMutableTable(kProceedingsTable);
  DISTINCT_CHECK(proceedings
                     ->AppendRow({Value::Int(0), Value::Int(0),
                                  Value::Int(1997), Value::Str("CityA")})
                     .ok());
  DISTINCT_CHECK(proceedings
                     ->AppendRow({Value::Int(1), Value::Int(1),
                                  Value::Int(2002), Value::Str("CityB")})
                     .ok());
  DISTINCT_CHECK(proceedings
                     ->AppendRow({Value::Int(2), Value::Int(2),
                                  Value::Int(2001), Value::Str("CityA")})
                     .ok());

  Table* publications = *db.FindMutableTable(kPublicationsTable);
  for (int64_t p = 0; p < 3; ++p) {
    DISTINCT_CHECK(
        publications
            ->AppendRow({Value::Int(p),
                         Value::Str("Paper " + std::to_string(p)),
                         Value::Int(p)})
            .ok());
  }

  Table* publish = *db.FindMutableTable(kPublishTable);
  const int64_t rows[][2] = {
      {kWeiWang, 0}, {kJiongYang, 0},                    // paper 0
      {kWeiWang, 1}, {kHaixunWang, 1}, {kJiongYang, 1},  // paper 1
      {kJianPei, 2}, {kWeiWang, 2},                      // paper 2
  };
  for (int64_t i = 0; i < 7; ++i) {
    DISTINCT_CHECK(publish
                       ->AppendRow({Value::Int(i), Value::Int(rows[i][0]),
                                    Value::Int(rows[i][1])})
                       .ok());
  }
  DISTINCT_CHECK(db.ValidateIntegrity().ok());
  return db;
}

/// Oracle profiles, profiles[i][p]: one PropagationEngine::Compute per
/// (reference, path), with no store, memo or pool.
inline std::vector<std::vector<NeighborProfile>> OracleProfiles(
    const Distinct& engine, const std::vector<int32_t>& refs) {
  std::vector<std::vector<NeighborProfile>> profiles(refs.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    for (const JoinPath& path : engine.paths()) {
      profiles[i].push_back(engine.propagation_engine().Compute(
          path, refs[i], engine.config().propagation));
    }
  }
  return profiles;
}

}  // namespace testing_util
}  // namespace distinct

#endif  // DISTINCT_TESTS_TEST_UTIL_H_
