#include "core/delta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/distinct.h"
#include "dblp/generator.h"
#include "dblp/schema.h"
#include "prop/link_graph.h"
#include "prop/workspace.h"
#include "relational/csv.h"
#include "sim/parallel_kernel.h"
#include "sim/profile_store.h"

namespace distinct {
namespace {

// Known DBLP schema column orders (dblp/schema.cc).
constexpr int kAuthorsName = 1;
constexpr int kPublicationsProc = 2;

DistinctConfig TestConfig(int num_threads = 1) {
  DistinctConfig config;
  config.supervised = false;  // uniform weights: no training-set RNG to share
  config.promotions = DblpDefaultPromotions();
  config.min_sim = 1e-3;
  config.num_threads = num_threads;
  return config;
}

int64_t MaxPrimaryKey(const Database& db, const std::string& table) {
  const Table& t = **db.FindTable(table);
  const int pk = t.primary_key_column();
  int64_t max_pk = 0;
  for (int64_t row = 0; row < t.num_rows(); ++row) {
    max_pk = std::max(max_pk, t.GetInt(row, pk));
  }
  return max_pk;
}

/// Exact comparison: names, sizes, assignments, and bit-identical merge
/// similarities — the differential contract of the incremental catalog.
void ExpectSameResolutions(const std::vector<BulkResolution>& got,
                           const std::vector<BulkResolution>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t g = 0; g < want.size(); ++g) {
    SCOPED_TRACE("name " + want[g].name);
    EXPECT_EQ(got[g].name, want[g].name);
    EXPECT_EQ(got[g].num_refs, want[g].num_refs);
    EXPECT_EQ(got[g].clustering.num_clusters, want[g].clustering.num_clusters);
    EXPECT_EQ(got[g].clustering.assignment, want[g].clustering.assignment);
    ASSERT_EQ(got[g].clustering.merges.size(), want[g].clustering.merges.size());
    for (size_t m = 0; m < want[g].clustering.merges.size(); ++m) {
      EXPECT_EQ(got[g].clustering.merges[m].into,
                want[g].clustering.merges[m].into);
      EXPECT_EQ(got[g].clustering.merges[m].from,
                want[g].clustering.merges[m].from);
      EXPECT_EQ(got[g].clustering.merges[m].similarity,
                want[g].clustering.merges[m].similarity);
    }
  }
}

/// Same references, the same kind of slice everywhere, and every slice
/// expanding to the same entries bit for bit.
void ExpectSameSlices(const ProfileStore& got, const ProfileStore& want) {
  ASSERT_EQ(got.refs(), want.refs());
  ASSERT_EQ(got.num_paths(), want.num_paths());
  for (size_t p = 0; p < want.num_paths(); ++p) {
    for (size_t r = 0; r < want.num_refs(); ++r) {
      SCOPED_TRACE("path " + std::to_string(p) + " slice " +
                   std::to_string(r));
      EXPECT_EQ(got.path(p).is_hub(r), want.path(p).is_hub(r));
      const NeighborProfile a = got.path(p).Expand(r);
      const NeighborProfile b = want.path(p).Expand(r);
      ASSERT_EQ(a.size(), b.size());
      for (size_t e = 0; e < b.size(); ++e) {
        EXPECT_EQ(a.entries()[e].tuple, b.entries()[e].tuple);
        EXPECT_EQ(a.entries()[e].forward, b.entries()[e].forward);
        EXPECT_EQ(a.entries()[e].reverse, b.entries()[e].reverse);
      }
    }
  }
}

void ExpectBitIdentical(const PairMatrix& got, const PairMatrix& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got.at(i, j)),
                std::bit_cast<uint64_t>(want.at(i, j)))
          << "cell (" << i << ", " << j << ")";
    }
  }
}

TEST(DatabaseDeltaTest, BatchesRowsPerTableInAddOrder) {
  DatabaseDelta delta;
  EXPECT_TRUE(delta.empty());
  delta.Add("A", {Value::Int(1)});
  delta.Add("B", {Value::Int(2)});
  delta.Add("A", {Value::Int(3)});
  EXPECT_EQ(delta.num_rows(), 3);
  ASSERT_EQ(delta.tables().size(), 2u);
  EXPECT_EQ(delta.tables()[0].table, "A");
  EXPECT_EQ(delta.tables()[0].rows.size(), 2u);
  EXPECT_EQ(delta.tables()[1].table, "B");
  EXPECT_EQ(delta.tables()[1].rows.size(), 1u);
  EXPECT_EQ(delta.tables()[0].rows[1][0].AsInt(), 3);
}

/// One generated DBLP world with planted ambiguity (skewed name sizes: one
/// 3-way 40-publication case, one 2-way 12-publication case, plus the
/// organic background); every mutating test copies it.
class DeltaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorConfig generator;
    generator.seed = 11;
    generator.num_communities = 8;
    generator.authors_per_community = 10;
    generator.ambiguous = {{"Wei Wang", 3, 40}, {"Jing Li", 2, 12}};
    auto dataset = GenerateDblpDataset(generator);
    DISTINCT_CHECK(dataset.ok());
    dataset_ = new DblpDataset(*std::move(dataset));
  }

  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  /// A full copy of the generated database (MakeTailDelta with an empty
  /// tail is exactly a deep copy).
  static Database CopyDb() {
    auto split = MakeTailDelta(dataset_->db, kPublishTable, 0);
    DISTINCT_CHECK(split.ok());
    return std::move(split->first);
  }

  /// Resolves every filtered name group of a fresh batch engine over `db` —
  /// the ground truth the incremental path must reproduce.
  static std::vector<BulkResolution> BatchRebuild(const Database& db,
                                                  int num_threads = 1) {
    auto engine = Distinct::Create(db, DblpReferenceSpec(),
                                   TestConfig(num_threads));
    DISTINCT_CHECK(engine.ok());
    IncrementalCatalog catalog(*engine);
    DISTINCT_CHECK(catalog.Build().ok());
    return catalog.resolutions();
  }

  static DblpDataset* dataset_;
};

DblpDataset* DeltaTest::dataset_ = nullptr;

TEST_F(DeltaTest, MakeTailDeltaSplitsThePublishTable) {
  const int64_t total = (**dataset_->db.FindTable(kPublishTable)).num_rows();
  auto split = MakeTailDelta(dataset_->db, kPublishTable, 25);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_EQ((**split->first.FindTable(kPublishTable)).num_rows(), total - 25);
  EXPECT_EQ(split->second.num_rows(), 25);
  // Other tables are copied whole.
  EXPECT_EQ((**split->first.FindTable(kAuthorsTable)).num_rows(),
            (**dataset_->db.FindTable(kAuthorsTable)).num_rows());
  EXPECT_FALSE(MakeTailDelta(dataset_->db, kPublishTable, total + 1).ok());
  EXPECT_FALSE(MakeTailDelta(dataset_->db, "Nope", 1).ok());
}

TEST_F(DeltaTest, LinkGraphApplyAppendMatchesFreshBuild) {
  auto split = MakeTailDelta(dataset_->db, kPublishTable, 30);
  ASSERT_TRUE(split.ok());
  Database base = std::move(split->first);

  auto build_schema = [](const Database& db) {
    auto schema = SchemaGraph::Build(db);
    DISTINCT_CHECK(schema.ok());
    for (const auto& [table, column] : DblpDefaultPromotions()) {
      DISTINCT_CHECK(schema->PromoteAttribute(table, column).ok());
    }
    return *std::move(schema);
  };

  const SchemaGraph base_schema = build_schema(base);
  auto appended = LinkGraph::Build(base_schema);
  ASSERT_TRUE(appended.ok());
  Table& publish = **base.FindMutableTable(kPublishTable);
  for (const DatabaseDelta::TableRows& batch : split->second.tables()) {
    for (const std::vector<Value>& row : batch.rows) {
      ASSERT_TRUE(publish.AppendRow(row).ok());
    }
  }
  ASSERT_TRUE(appended->ApplyAppend().ok());

  const SchemaGraph full_schema = build_schema(dataset_->db);
  auto fresh = LinkGraph::Build(full_schema);
  ASSERT_TRUE(fresh.ok());

  ASSERT_EQ(base_schema.num_nodes(), full_schema.num_nodes());
  ASSERT_EQ(base_schema.num_edges(), full_schema.num_edges());
  for (int n = 0; n < full_schema.num_nodes(); ++n) {
    EXPECT_EQ(appended->NumTuples(n), fresh->NumTuples(n)) << "node " << n;
  }
  auto as_vector = [](std::span<const int32_t> span) {
    return std::vector<int32_t>(span.begin(), span.end());
  };
  for (int e = 0; e < full_schema.num_edges(); ++e) {
    const SchemaEdge& edge = full_schema.edge(e);
    for (int32_t t = 0; t < fresh->NumTuples(edge.from_node); ++t) {
      ASSERT_EQ(as_vector(appended->Forward(e, t)),
                as_vector(fresh->Forward(e, t)))
          << "edge " << e << " forward tuple " << t;
    }
    for (int32_t t = 0; t < fresh->NumTuples(edge.to_node); ++t) {
      ASSERT_EQ(as_vector(appended->Reverse(e, t)),
                as_vector(fresh->Reverse(e, t)))
          << "edge " << e << " reverse tuple " << t;
    }
  }
}

// --- Delta validation: every rejection leaves database and engine untouched.

class DeltaValidationTest : public DeltaTest {
 protected:
  void SetUp() override { Reset(CopyDb()); }

  /// A fresh engine at catalog version 0 over `db`.
  void Reset(Database db) {
    engine_.reset();
    db_ = std::make_unique<Database>(std::move(db));
    auto engine = Distinct::Create(*db_, DblpReferenceSpec(), TestConfig());
    ASSERT_TRUE(engine.ok());
    engine_ = std::make_unique<Distinct>(*std::move(engine));
    rows_before_ = db_->TotalRows();
  }

  void ExpectRejected(const DatabaseDelta& delta, StatusCode code) {
    auto report = engine_->ApplyDelta(*db_, delta);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), code) << report.status().ToString();
    // Nothing mutated: the dry run rejects before any append.
    EXPECT_EQ(db_->TotalRows(), rows_before_);
    EXPECT_EQ(engine_->catalog_version(), 0);
    EXPECT_TRUE(engine_->ResolveName("Wei Wang").ok());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Distinct> engine_;
  int64_t rows_before_ = 0;
};

TEST_F(DeltaValidationTest, RejectsUnknownTable) {
  DatabaseDelta delta;
  delta.Add("NoSuchTable", {Value::Int(1)});
  ExpectRejected(delta, StatusCode::kNotFound);
}

TEST_F(DeltaValidationTest, RejectsArityMismatch) {
  DatabaseDelta delta;
  delta.Add(kAuthorsTable, {Value::Int(MaxPrimaryKey(*db_, kAuthorsTable) + 1)});
  ExpectRejected(delta, StatusCode::kInvalidArgument);
}

TEST_F(DeltaValidationTest, RejectsTypeMismatch) {
  DatabaseDelta delta;
  delta.Add(kAuthorsTable, {Value::Int(MaxPrimaryKey(*db_, kAuthorsTable) + 1),
                            Value::Int(7)});  // name column expects a string
  ExpectRejected(delta, StatusCode::kInvalidArgument);
}

TEST_F(DeltaValidationTest, RejectsNullPrimaryKey) {
  DatabaseDelta delta;
  delta.Add(kAuthorsTable, {Value::Null(), Value::Str("Nobody")});
  ExpectRejected(delta, StatusCode::kInvalidArgument);
}

TEST_F(DeltaValidationTest, RejectsPrimaryKeyCollidingWithExistingRow) {
  const Table& authors = **db_->FindTable(kAuthorsTable);
  DatabaseDelta delta;
  delta.Add(kAuthorsTable, {Value::Int(authors.GetInt(0, 0)),
                            Value::Str("Impostor")});
  ExpectRejected(delta, StatusCode::kInvalidArgument);
}

TEST_F(DeltaValidationTest, RejectsDuplicatePrimaryKeyWithinTheDelta) {
  const int64_t pk = MaxPrimaryKey(*db_, kAuthorsTable) + 1;
  DatabaseDelta delta;
  delta.Add(kAuthorsTable, {Value::Int(pk), Value::Str("First")});
  delta.Add(kAuthorsTable, {Value::Int(pk), Value::Str("Second")});
  ExpectRejected(delta, StatusCode::kInvalidArgument);
}

TEST_F(DeltaValidationTest, RejectsDanglingForeignKey) {
  const Table& publish = **db_->FindTable(kPublishTable);
  DatabaseDelta delta;
  delta.Add(kPublishTable,
            {Value::Int(MaxPrimaryKey(*db_, kPublishTable) + 1),
             Value::Int(99999999), publish.GetValue(0, 2)});
  ExpectRejected(delta, StatusCode::kFailedPrecondition);
}

TEST_F(DeltaValidationTest, RejectsReservedInt64Min) {
  // INT64_MIN is the raw NULL cell, so appending it is refused; the row
  // before it must not be left appended either.
  const Table& proceedings = **db_->FindTable(kProceedingsTable);
  const int64_t pk = MaxPrimaryKey(*db_, kProceedingsTable) + 1;
  DatabaseDelta delta;
  delta.Add(kProceedingsTable, {Value::Int(pk), proceedings.GetValue(0, 1),
                                Value::Int(2007), Value::Str("Istanbul")});
  delta.Add(kProceedingsTable, {Value::Int(pk + 1), proceedings.GetValue(0, 1),
                                Value::Int(INT64_MIN), Value::Str("Istanbul")});
  ExpectRejected(delta, StatusCode::kInvalidArgument);
}

// A seeded mutator in the dice style: each round applies one mutation to a
// valid tail delta of the Publish table. A rejected delta must leave the
// rows and the catalog version as they were; an accepted one must bump the
// version, after which the fixture is rebuilt.
TEST_F(DeltaValidationTest, SeededMutationsRejectWholeOrApplyWhole) {
  constexpr int64_t kTailRows = 6;
  constexpr int kRounds = 70;
  auto base = [] {
    auto split = MakeTailDelta(dataset_->db, kPublishTable, kTailRows);
    DISTINCT_CHECK(split.ok());
    return std::move(split->first);
  };
  auto split = MakeTailDelta(dataset_->db, kPublishTable, kTailRows);
  ASSERT_TRUE(split.ok());
  const std::vector<std::vector<Value>> valid =
      split->second.tables().front().rows;
  Reset(std::move(split->first));

  const Table& schema = **dataset_->db.FindTable(kPublishTable);
  const int pk = schema.primary_key_column();
  std::vector<int> fk_columns;
  for (int c = 0; c < schema.num_columns(); ++c) {
    if (!schema.column(c).fk_table.empty()) {
      fk_columns.push_back(c);
    }
  }
  ASSERT_FALSE(fk_columns.empty());

  enum Mutation {
    kNullCell,
    kInt64MinCell,
    kWrongType,
    kExistingKey,
    kRepeatedKey,
    kDanglingFk,
    kWrongArity,
    kNumMutations
  };
  Rng rng(24);
  int accepted = 0;
  for (int round = 0; round < kRounds; ++round) {
    const auto mutation = static_cast<Mutation>(round % kNumMutations);
    // Fetched each round: an accepted round replaces the database.
    const Table& publish = **db_->FindTable(kPublishTable);
    std::vector<std::vector<Value>> rows = valid;
    const auto row = static_cast<size_t>(rng.UniformInt(0, kTailRows - 1));
    const auto column =
        static_cast<size_t>(rng.UniformInt(0, publish.num_columns() - 1));
    StatusCode expected = StatusCode::kInvalidArgument;
    switch (mutation) {
      case kNullCell:
        // NULL is refused only in the key; a NULL foreign key is valid.
        rows[row][column] = Value::Null();
        if (static_cast<int>(column) != pk) {
          expected = StatusCode::kOk;
        }
        break;
      case kInt64MinCell:
        rows[row][column] = Value::Int(INT64_MIN);
        break;
      case kWrongType:
        rows[row][column] = Value::Str("not a number");
        break;
      case kExistingKey:
        rows[row][static_cast<size_t>(pk)] =
            publish.GetValue(rng.UniformInt(0, publish.num_rows() - 1), pk);
        break;
      case kRepeatedKey:
        rows[row][static_cast<size_t>(pk)] =
            rows[(row + static_cast<size_t>(rng.UniformInt(1, kTailRows - 1))) %
                 rows.size()][static_cast<size_t>(pk)];
        break;
      case kDanglingFk: {
        const int fk = fk_columns[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(fk_columns.size()) - 1))];
        rows[row][static_cast<size_t>(fk)] =
            Value::Int(MaxPrimaryKey(*db_, publish.column(fk).fk_table) + 1 +
                       rng.UniformInt(0, 1000));
        expected = StatusCode::kFailedPrecondition;
        break;
      }
      case kWrongArity:
        if (rng.Bernoulli(0.5)) {
          rows[row].pop_back();
        } else {
          rows[row].push_back(Value::Int(1));
        }
        break;
      case kNumMutations:
        break;
    }
    SCOPED_TRACE(StrFormat("round %d: mutation %d at row %zu column %zu",
                           round, static_cast<int>(mutation), row, column));
    DatabaseDelta delta;
    for (std::vector<Value>& cells : rows) {
      delta.Add(kPublishTable, std::move(cells));
    }
    if (expected != StatusCode::kOk) {
      ExpectRejected(delta, expected);
      continue;
    }
    auto report = engine_->ApplyDelta(*db_, delta);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(engine_->catalog_version(), 1);
    EXPECT_EQ(db_->TotalRows(), rows_before_ + kTailRows);
    ++accepted;
    Reset(base());
  }
  EXPECT_GT(accepted, 0);
}

TEST_F(DeltaValidationTest, RejectsTheWrongDatabaseInstance) {
  Database other = CopyDb();
  auto report = engine_->ApplyDelta(other, DatabaseDelta{});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// --- The differential harness: incremental must equal batch rebuild.

TEST_F(DeltaTest, TailAppendMatchesBatchRebuild) {
  auto split = MakeTailDelta(dataset_->db, kPublishTable, 40);
  ASSERT_TRUE(split.ok());
  Database db = std::move(split->first);

  auto engine = Distinct::Create(db, DblpReferenceSpec(), TestConfig());
  ASSERT_TRUE(engine.ok());
  IncrementalCatalog catalog(*engine);
  ASSERT_TRUE(catalog.Build().ok());

  auto report = catalog.Apply(db, split->second);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_appended, 40);
  EXPECT_EQ(report->new_refs, 40);
  EXPECT_EQ(report->catalog_version, 1);
  EXPECT_EQ(engine->catalog_version(), 1);
  EXPECT_EQ(report->tuple_watermark, db.TotalRows());
  EXPECT_FALSE(report->dirty_names.empty());
  EXPECT_EQ(report->names_reused + report->names_reresolved,
            static_cast<int64_t>(catalog.resolutions().size()));
  // The point of the delta path: most names are untouched and reuse their
  // cached resolution.
  EXPECT_GT(report->names_reused, 0);

  ExpectSameResolutions(catalog.resolutions(), BatchRebuild(db));
}

TEST_F(DeltaTest, HubPaperAndNewAmbiguousAuthorMatchBatchRebuild) {
  Database db = CopyDb();
  auto engine = Distinct::Create(db, DblpReferenceSpec(), TestConfig());
  ASSERT_TRUE(engine.ok());
  IncrementalCatalog catalog(*engine);
  ASSERT_TRUE(catalog.Build().ok());

  const Table& authors = **db.FindTable(kAuthorsTable);
  const Table& publications = **db.FindTable(kPublicationsTable);
  int64_t next_author = MaxPrimaryKey(db, kAuthorsTable) + 1;
  int64_t next_paper = MaxPrimaryKey(db, kPublicationsTable) + 1;
  int64_t next_pub = MaxPrimaryKey(db, kPublishTable) + 1;

  DatabaseDelta delta;
  // A hub paper: the two planted ambiguous names plus ten background
  // authors all on one publication. This is the merging stressor — every
  // pair of its authors gains a shared neighbor, which can pull previously
  // split clusters together.
  const int64_t hub_paper = next_paper++;
  delta.Add(kPublicationsTable, {Value::Int(hub_paper), Value::Str("Hub"),
                                 publications.GetValue(0, kPublicationsProc)});
  int background = 0;
  int hub_rows = 0;
  for (int64_t row = 0; row < authors.num_rows(); ++row) {
    const std::string& name = authors.GetString(row, kAuthorsName);
    const bool ambiguous = name == "Wei Wang" || name == "Jing Li";
    if (!ambiguous && background >= 10) {
      continue;
    }
    background += ambiguous ? 0 : 1;
    ++hub_rows;
    delta.Add(kPublishTable, {Value::Int(next_pub++),
                              Value::Int(authors.GetInt(row, 0)),
                              Value::Int(hub_paper)});
  }
  // A brand-new author whose name collides with a planted case, publishing
  // two papers (one of them new — FK onto a row of this same delta). Their
  // group splits: a new reference cluster appears out of nothing.
  const int64_t new_author = next_author++;
  const int64_t new_paper = next_paper++;
  delta.Add(kAuthorsTable, {Value::Int(new_author), Value::Str("Jing Li")});
  delta.Add(kPublicationsTable,
            {Value::Int(new_paper), Value::Str("Fresh Results"),
             publications.GetValue(0, kPublicationsProc)});
  delta.Add(kPublishTable, {Value::Int(next_pub++), Value::Int(new_author),
                            Value::Int(new_paper)});
  delta.Add(kPublishTable, {Value::Int(next_pub++), Value::Int(new_author),
                            Value::Int(publications.GetInt(0, 0))});

  auto report = catalog.Apply(db, delta);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->new_refs, static_cast<int64_t>(hub_rows) + 2);
  const auto& dirty = report->dirty_names;
  EXPECT_NE(std::find(dirty.begin(), dirty.end(), "Wei Wang"), dirty.end());
  EXPECT_NE(std::find(dirty.begin(), dirty.end(), "Jing Li"), dirty.end());

  ExpectSameResolutions(catalog.resolutions(), BatchRebuild(db));
}

TEST_F(DeltaTest, SequentialDeltasCompose) {
  auto outer = MakeTailDelta(dataset_->db, kPublishTable, 20);
  ASSERT_TRUE(outer.ok());
  auto inner = MakeTailDelta(outer->first, kPublishTable, 20);
  ASSERT_TRUE(inner.ok());
  Database db = std::move(inner->first);

  auto engine = Distinct::Create(db, DblpReferenceSpec(), TestConfig());
  ASSERT_TRUE(engine.ok());
  IncrementalCatalog catalog(*engine);
  ASSERT_TRUE(catalog.Build().ok());

  ASSERT_TRUE(catalog.Apply(db, inner->second).ok());
  ExpectSameResolutions(catalog.resolutions(), BatchRebuild(db));
  auto report = catalog.Apply(db, outer->second);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->catalog_version, 2);
  ExpectSameResolutions(catalog.resolutions(), BatchRebuild(db));
}

// Exercised by the TSan job (this binary carries the `parallel` label):
// the incremental path with a worker pool — profile builds fan out over
// shared memo + workspaces — must produce the same bits as the serial
// batch rebuild.
TEST_F(DeltaTest, ParallelIncrementalMatchesSerialBatchRebuild) {
  auto split = MakeTailDelta(dataset_->db, kPublishTable, 40);
  ASSERT_TRUE(split.ok());
  Database db = std::move(split->first);

  auto engine = Distinct::Create(db, DblpReferenceSpec(), TestConfig(4));
  ASSERT_TRUE(engine.ok());
  IncrementalCatalog catalog(*engine);
  ASSERT_TRUE(catalog.Build().ok());
  ASSERT_TRUE(catalog.Apply(db, split->second).ok());

  ExpectSameResolutions(catalog.resolutions(),
                        BatchRebuild(db, /*num_threads=*/1));
}

// The report's dirty-reference list is the splice contract: ascending,
// duplicate-free, aligned with its per-path masks, and covering every
// appended reference row.
TEST_F(DeltaTest, DirtyRefsAreSortedAndCoverAppendedRows) {
  auto split = MakeTailDelta(dataset_->db, kPublishTable, 40);
  ASSERT_TRUE(split.ok());
  Database db = std::move(split->first);
  const int64_t base_rows = (**db.FindTable(kPublishTable)).num_rows();

  auto engine = Distinct::Create(db, DblpReferenceSpec(), TestConfig());
  ASSERT_TRUE(engine.ok());
  auto report = engine->ApplyDelta(db, split->second);
  ASSERT_TRUE(report.ok());

  const std::vector<int32_t>& dirty = report->dirty_refs;
  ASSERT_EQ(report->dirty_ref_path_masks.size(), dirty.size());
  EXPECT_TRUE(std::is_sorted(dirty.begin(), dirty.end()));
  EXPECT_EQ(std::adjacent_find(dirty.begin(), dirty.end()), dirty.end());
  for (const uint64_t mask : report->dirty_ref_path_masks) {
    EXPECT_NE(mask, 0u);  // a dirty reference is dirty on some path
  }
  for (int64_t row = base_rows; row < base_rows + report->new_refs; ++row) {
    EXPECT_TRUE(std::binary_search(dirty.begin(), dirty.end(),
                                   static_cast<int32_t>(row)))
        << "appended reference row " << row;
  }
}

TEST_F(DeltaTest, PatchResolveArtifactsRejectsNonPrefixRefs) {
  Database db = CopyDb();
  auto engine = Distinct::Create(db, DblpReferenceSpec(), TestConfig());
  ASSERT_TRUE(engine.ok());
  auto refs = engine->RefsForName("Wei Wang");
  ASSERT_TRUE(refs.ok());
  ASSERT_GE(refs->size(), 3u);
  auto artifacts = engine->ResolveRefsArtifacts(*refs);
  ASSERT_TRUE(artifacts.ok());

  std::vector<int32_t> reordered = *refs;
  std::swap(reordered.front(), reordered.back());
  auto patched = engine->PatchResolveArtifacts(*std::move(artifacts),
                                               reordered, /*dirty_refs=*/{});
  EXPECT_EQ(patched.status().code(), StatusCode::kInvalidArgument);
}

// ApplyDelta grows the one name index to exactly what a fresh Create()
// builds over the appended database: a brand-new name gets its own group,
// a reference to an existing name joins that name's group, and every
// reference row maps to the same group — for every name, not only those a
// scan's min_refs keeps.
TEST_F(DeltaTest, NameIndexAfterDeltaMatchesFreshCreate) {
  Database db = CopyDb();
  auto engine = Distinct::Create(db, DblpReferenceSpec(), TestConfig());
  ASSERT_TRUE(engine.ok());
  const size_t names_before = engine->name_groups().size();
  const Table& authors = **db.FindTable(kAuthorsTable);
  const Table& publications = **db.FindTable(kPublicationsTable);
  const int64_t new_author = MaxPrimaryKey(db, kAuthorsTable) + 1;
  int64_t next_pub = MaxPrimaryKey(db, kPublishTable) + 1;

  DatabaseDelta delta;
  delta.Add(kAuthorsTable,
            {Value::Int(new_author), Value::Str("Brand New Name")});
  delta.Add(kPublishTable, {Value::Int(next_pub++), Value::Int(new_author),
                            Value::Int(publications.GetInt(0, 0))});
  delta.Add(kPublishTable,
            {Value::Int(next_pub++), Value::Int(authors.GetInt(0, 0)),
             Value::Int(publications.GetInt(1, 0))});
  ASSERT_TRUE(engine->ApplyDelta(db, delta).ok());

  auto fresh = Distinct::Create(db, DblpReferenceSpec(), TestConfig());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(engine->name_groups(), fresh->name_groups());
  ASSERT_EQ(engine->name_groups().size(), names_before + 1);
  EXPECT_EQ(engine->name_groups().back().first, "Brand New Name");
  const int64_t ref_rows = (**db.FindTable(kPublishTable)).num_rows();
  for (int64_t row = 0; row < ref_rows; ++row) {
    EXPECT_EQ(engine->NameGroupOfRef(row), fresh->NameGroupOfRef(row))
        << "reference row " << row;
  }
  EXPECT_EQ(engine->NameGroupOfRef(ref_rows - 2),
            static_cast<int64_t>(names_before));
  const int64_t existing = engine->NameGroupOfRef(ref_rows - 1);
  ASSERT_GE(existing, 0);
  EXPECT_EQ(engine->name_groups()[static_cast<size_t>(existing)].first,
            authors.GetString(0, kAuthorsName));
  EXPECT_EQ(engine->NameGroupOfRef(ref_rows), -1);
}

// An appended author row with a NULL name, and a Publish row pointing at
// it: the delta applies, the reference joins no name group, and the name
// index keeps answering.
TEST_F(DeltaTest, NullNameAuthorJoinsNoNameGroup) {
  Database db = CopyDb();
  auto engine = Distinct::Create(db, DblpReferenceSpec(), TestConfig());
  ASSERT_TRUE(engine.ok());
  const auto names_before = engine->name_groups();
  const Table& publications = **db.FindTable(kPublicationsTable);
  const int64_t nameless = MaxPrimaryKey(db, kAuthorsTable) + 1;
  DatabaseDelta delta;
  delta.Add(kAuthorsTable, {Value::Int(nameless), Value::Null()});
  delta.Add(kPublishTable, {Value::Int(MaxPrimaryKey(db, kPublishTable) + 1),
                            Value::Int(nameless),
                            Value::Int(publications.GetInt(0, 0))});
  auto report = engine->ApplyDelta(db, delta);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->new_refs, 1);
  const int64_t ref_row = (**db.FindTable(kPublishTable)).num_rows() - 1;
  EXPECT_EQ(engine->NameGroupOfRef(ref_row), -1);
  EXPECT_EQ(engine->name_groups(), names_before);
  auto resolved = engine->ResolveName("Wei Wang");
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
}

TEST_F(DeltaTest, EmptyDeltaDirtiesNothing) {
  Database db = CopyDb();
  auto engine = Distinct::Create(db, DblpReferenceSpec(), TestConfig());
  ASSERT_TRUE(engine.ok());
  auto report = engine->ApplyDelta(db, DatabaseDelta{});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->rows_appended, 0);
  EXPECT_EQ(report->new_refs, 0);
  EXPECT_TRUE(report->dirty_names.empty());
  EXPECT_EQ(report->catalog_version, 1);  // the version still ticks
}

TEST_F(DeltaTest, LoadDeltaCsvNeedsADirectoryWithATableFile) {
  auto split = MakeTailDelta(dataset_->db, kPublishTable, 5);
  ASSERT_TRUE(split.ok());
  const Database& base = split->first;
  const std::string dir = ::testing::TempDir() + "/delta_csv_test";
  std::filesystem::remove_all(dir);

  // A mistyped --delta must not load as an empty delta.
  EXPECT_EQ(LoadDatabaseDeltaCsv(base, dir).status().code(),
            StatusCode::kNotFound);
  std::filesystem::create_directories(dir);
  EXPECT_EQ(LoadDatabaseDeltaCsv(base, dir).status().code(),
            StatusCode::kNotFound);

  // One table's file is enough; the other tables stay out of the delta.
  const Table& publish = **base.FindTable(kPublishTable);
  std::vector<ColumnSpec> columns;
  for (int c = 0; c < publish.num_columns(); ++c) {
    columns.push_back(publish.column(c));
  }
  auto tail = Table::Create(kPublishTable, std::move(columns));
  ASSERT_TRUE(tail.ok());
  const std::vector<std::vector<Value>>& rows = split->second.tables()[0].rows;
  for (const std::vector<Value>& row : rows) {
    ASSERT_TRUE(tail->AppendRow(row).ok());
  }
  ASSERT_TRUE(SaveTableCsv(*tail, dir + "/" + kPublishTable + ".csv").ok());
  auto loaded = LoadDatabaseDeltaCsv(base, dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->tables().size(), 1u);
  EXPECT_EQ(loaded->tables()[0].table, kPublishTable);
  EXPECT_EQ(loaded->tables()[0].rows, rows);
  std::filesystem::remove_all(dir);
}

// --- The serving-path seam: splice updates of the profile store.

// Update after a real delta — every old position dirty on every path, or
// only the report's dirty references on their dirty paths, plus the
// appended references — equals Build over the combined references slab
// for slab, at 1 and 4 threads.
TEST_F(DeltaTest, ProfileStoreUpdateMatchesFullBuildAfterDelta) {
  auto split = MakeTailDelta(dataset_->db, kPublishTable, 40);
  ASSERT_TRUE(split.ok());
  Database db = std::move(split->first);
  auto engine = Distinct::Create(db, DblpReferenceSpec(), TestConfig());
  ASSERT_TRUE(engine.ok());

  auto before = engine->RefsForName("Wei Wang");
  ASSERT_TRUE(before.ok());
  ASSERT_GE(before->size(), 2u);
  const PropagationOptions& options = engine->config().propagation;
  const ProfileStore base =
      ProfileStore::Build(engine->propagation_engine(), engine->paths(),
                          options, *before);

  auto report = engine->ApplyDelta(db, split->second);
  ASSERT_TRUE(report.ok());

  auto after = engine->RefsForName("Wei Wang");
  ASSERT_TRUE(after.ok());
  ASSERT_GT(after->size(), before->size());  // the tail held Wei Wang rows
  ASSERT_TRUE(std::equal(before->begin(), before->end(), after->begin()));
  const std::vector<int32_t> appended(after->begin() + before->size(),
                                      after->end());

  // Conservative splice: every old position dirty on every path.
  std::vector<size_t> all_positions(before->size());
  std::iota(all_positions.begin(), all_positions.end(), size_t{0});
  // Masked splice: the report's dirty references, each on its dirty paths.
  std::vector<size_t> dirty_positions;
  std::vector<uint64_t> dirty_masks;
  for (size_t i = 0; i < before->size(); ++i) {
    const auto it = std::lower_bound(report->dirty_refs.begin(),
                                     report->dirty_refs.end(), (*before)[i]);
    if (it != report->dirty_refs.end() && *it == (*before)[i]) {
      dirty_positions.push_back(i);
      dirty_masks.push_back(report->dirty_ref_path_masks[static_cast<size_t>(
          it - report->dirty_refs.begin())]);
    }
  }
  // The delta reaches old references, and not each on every path.
  ASSERT_FALSE(dirty_positions.empty());
  const size_t num_paths = engine->paths().size();
  ASSERT_LE(num_paths, 64u);
  const uint64_t every_path =
      num_paths == 64 ? ~uint64_t{0} : (uint64_t{1} << num_paths) - 1;
  EXPECT_TRUE(std::any_of(dirty_masks.begin(), dirty_masks.end(),
                          [&](uint64_t mask) {
                            return (mask & every_path) != every_path;
                          }));

  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ThreadPool pool(threads);
    const ProfileStore full =
        ProfileStore::Build(engine->propagation_engine(), engine->paths(),
                            options, *after, &pool);
    {
      SCOPED_TRACE("every position");
      ProfileStore store = base;
      store.Update(engine->propagation_engine(), engine->paths(), options,
                   all_positions, appended, &pool);
      ExpectSameSlices(store, full);
    }
    {
      SCOPED_TRACE("dirty positions and paths");
      ProfileStore store = base;
      store.Update(engine->propagation_engine(), engine->paths(), options,
                   dirty_positions, appended, &pool,
                   ProfileStore::kMinParallelRefs, /*shared_cache=*/nullptr,
                   /*shared_workspaces=*/nullptr, &dirty_masks);
      ExpectSameSlices(store, full);
    }
  }
}

// Resident stores pin the suffixes their hub slices read. After ApplyDelta
// erased the memo entries of the hubs the delta dirtied — and with every
// other hub of those stores erased too — a clean name's cached store still
// fills its cached matrices, and a dirty name's store splices to a fresh
// resolution, bit for bit.
TEST_F(DeltaTest, ResidentStoresOutliveTheirHubsMemoEntries) {
  auto split = MakeTailDelta(dataset_->db, kPublishTable, 40);
  ASSERT_TRUE(split.ok());
  Database db = std::move(split->first);
  auto engine = Distinct::Create(db, DblpReferenceSpec(), TestConfig());
  ASSERT_TRUE(engine.ok());
  SubtreeCache& memo = *engine->memo();

  IncrementalCatalog probe(*engine);  // only used to enumerate names
  ASSERT_TRUE(probe.Build().ok());
  std::vector<std::string> names;
  std::vector<std::vector<int32_t>> refs_before;
  std::vector<Distinct::ResolveArtifacts> cached;
  for (const BulkResolution& resolution : probe.resolutions()) {
    auto refs = engine->RefsForName(resolution.name);
    ASSERT_TRUE(refs.ok());
    auto artifacts = engine->ResolveRefsArtifacts(*refs);
    ASSERT_TRUE(artifacts.ok());
    names.push_back(resolution.name);
    refs_before.push_back(*std::move(refs));
    cached.push_back(*std::move(artifacts));
  }

  auto report = engine->ApplyDelta(db, split->second);
  ASSERT_TRUE(report.ok());
  // Some hub a resident store reads lost its memo entry to the delta.
  size_t erased_by_delta = 0;
  for (const Distinct::ResolveArtifacts& artifacts : cached) {
    for (size_t p = 0; p < artifacts.store.num_paths(); ++p) {
      std::vector<int32_t> hubs;
      for (const HubSlice& hub : artifacts.store.path(p).hubs) {
        erased_by_delta += memo.Find(static_cast<int>(p), hub.hub) == nullptr;
        hubs.push_back(hub.hub);
      }
      memo.Erase(static_cast<int>(p), hubs);
    }
  }
  EXPECT_GT(erased_by_delta, 0u);

  size_t clean = 0;
  size_t dirty = 0;
  for (size_t g = 0; g < names.size(); ++g) {
    SCOPED_TRACE("name " + names[g]);
    auto refs = engine->RefsForName(names[g]);
    ASSERT_TRUE(refs.ok());
    const bool is_dirty =
        std::find(report->dirty_names.begin(), report->dirty_names.end(),
                  names[g]) != report->dirty_names.end();
    const auto refill =
        ComputePairMatrices(cached[g].store, engine->model());
    if (!is_dirty) {
      ++clean;
      ASSERT_EQ(*refs, refs_before[g]);
      ExpectBitIdentical(refill.first, cached[g].resem);
      ExpectBitIdentical(refill.second, cached[g].walk);
    }
    auto fresh = engine->ResolveRefsArtifacts(*refs);
    ASSERT_TRUE(fresh.ok());
    if (is_dirty) {
      ++dirty;
      auto patched = engine->PatchResolveArtifacts(
          std::move(cached[g]), *refs, report->dirty_refs,
          report->dirty_ref_path_masks);
      ASSERT_TRUE(patched.ok());
      ExpectSameSlices(patched->store, fresh->store);
      ExpectBitIdentical(patched->resem, fresh->resem);
      ExpectBitIdentical(patched->walk, fresh->walk);
    } else {
      ExpectBitIdentical(refill.first, fresh->resem);
      ExpectBitIdentical(refill.second, fresh->walk);
    }
  }
  EXPECT_GT(clean, 0u);
  EXPECT_GT(dirty, 0u);
}

TEST_F(DeltaTest, CleanNameProfilesSurviveTheDeltaVerbatim) {
  auto split = MakeTailDelta(dataset_->db, kPublishTable, 40);
  ASSERT_TRUE(split.ok());
  Database db = std::move(split->first);
  auto engine = Distinct::Create(db, DblpReferenceSpec(), TestConfig());
  ASSERT_TRUE(engine.ok());

  IncrementalCatalog probe(*engine);  // only used to enumerate names
  ASSERT_TRUE(probe.Build().ok());
  std::vector<std::string> names;
  for (const BulkResolution& resolution : probe.resolutions()) {
    names.push_back(resolution.name);
  }

  auto report = engine->ApplyDelta(db, split->second);
  ASSERT_TRUE(report.ok());
  // Pick a name the delta did not dirty; its profiles must be identical
  // before and after — that is what licenses the catalog's reuse.
  std::string clean;
  for (const std::string& name : names) {
    if (std::find(report->dirty_names.begin(), report->dirty_names.end(),
                  name) == report->dirty_names.end()) {
      clean = name;
      break;
    }
  }
  ASSERT_FALSE(clean.empty()) << "every name dirty — grow the corpus";

  auto refs = engine->RefsForName(clean);
  ASSERT_TRUE(refs.ok());
  const PropagationOptions& options = engine->config().propagation;
  ProfileStore store =
      ProfileStore::Build(engine->propagation_engine(), engine->paths(),
                          options, *refs);
  // No positions, no new refs: Update must be a no-op that still equals a
  // full rebuild, proving the kept-verbatim profiles are genuinely
  // unchanged by the append.
  store.Update(engine->propagation_engine(), engine->paths(), options, {}, {});
  ExpectSameSlices(store, ProfileStore::Build(engine->propagation_engine(),
                                             engine->paths(), options,
                                             *refs));
}

// --- SubtreeCache targeted invalidation.

TEST(SubtreeCacheEraseTest, DropsOnlyTheTargetedEntries) {
  SubtreeCache cache(1 << 20);
  SubtreeDistribution dist;
  dist.Append(7, 0.5, 0.25, 1.0);
  dist.instances = 1.0;
  cache.Insert(0, 11, dist);
  cache.Insert(0, 12, dist);
  cache.Insert(3, 11, dist);

  EXPECT_EQ(cache.Erase(0, {11, 99}), 1);  // 99 was never resident
  EXPECT_EQ(cache.Find(0, 11), nullptr);
  EXPECT_NE(cache.Find(0, 12), nullptr);   // same path, different tuple
  EXPECT_NE(cache.Find(3, 11), nullptr);   // same tuple, different path
  EXPECT_EQ(cache.stats().entries, 2);
  // Erase is idempotent, and re-inserting after an erase works.
  EXPECT_EQ(cache.Erase(0, {11}), 0);
  cache.Insert(0, 11, dist);
  EXPECT_NE(cache.Find(0, 11), nullptr);
}

TEST(SubtreeCacheEraseTest, ReinsertedKeyQueuesAsNewest) {
  SubtreeDistribution dist;
  dist.Append(7, 0.5, 0.25, 1.0);
  const size_t entry_bytes = dist.ByteSize();
  constexpr size_t kShards = 16;  // SubtreeCache's shard count

  // Two more keys in tuple 0's shard, found by eviction in a cache with
  // room for one entry per shard.
  std::vector<int32_t> same_shard;
  for (int32_t t = 1; same_shard.size() < 2 && t < 4096; ++t) {
    SubtreeCache probe(kShards * entry_bytes);
    probe.Insert(0, 0, dist);
    probe.Insert(0, t, dist);
    if (probe.Find(0, 0) == nullptr) {
      same_shard.push_back(t);
    }
  }
  ASSERT_EQ(same_shard.size(), 2u);
  const int32_t a = 0;
  const int32_t b = same_shard[0];
  const int32_t c = same_shard[1];

  // Room for two: A, B; erase and re-insert A; C must evict B, the oldest.
  SubtreeCache cache(kShards * 2 * entry_bytes);
  cache.Insert(0, a, dist);
  cache.Insert(0, b, dist);
  EXPECT_EQ(cache.Erase(0, {a}), 1);
  cache.Insert(0, a, dist);
  cache.Insert(0, c, dist);
  EXPECT_NE(cache.Find(0, a), nullptr);
  EXPECT_EQ(cache.Find(0, b), nullptr);
  EXPECT_NE(cache.Find(0, c), nullptr);
  const SubtreeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2);
}

TEST(SubtreeCacheEraseTest, DisabledCacheErasesNothing) {
  SubtreeCache cache(0);
  SubtreeDistribution dist;
  cache.Insert(0, 1, dist);
  EXPECT_EQ(cache.Erase(0, {1}), 0);
}

}  // namespace
}  // namespace distinct
