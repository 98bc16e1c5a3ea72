// Runs the pipeline on a real dblp.xml when one is available; otherwise
// falls back to an embedded sample so the example is always runnable.
//
//   ./build/examples/xml_import [--xml=/path/to/dblp.xml]
//       [--name="Wei Wang"] [--min-refs=3]

#include <cstdio>

#include "common/flags.h"
#include "core/distinct.h"
#include "dblp/schema.h"
#include "dblp/stats.h"
#include "dblp/xml_loader.h"

namespace {

constexpr char kEmbeddedSample[] = R"(<?xml version="1.0"?>
<dblp>
  <inproceedings key="conf/vldb/WangYM97">
    <author>Wei Wang</author><author>Jiong Yang</author>
    <author>Richard Muntz</author>
    <title>STING: A Statistical Information Grid Approach</title>
    <booktitle>VLDB</booktitle><year>1997</year>
  </inproceedings>
  <inproceedings key="conf/sigmod/WangWYY02">
    <author>Haixun Wang</author><author>Wei Wang</author>
    <author>Jiong Yang</author><author>Philip S. Yu</author>
    <title>Clustering by pattern similarity</title>
    <booktitle>SIGMOD</booktitle><year>2002</year>
  </inproceedings>
  <inproceedings key="conf/icde/LuYWL01">
    <author>Hongjun Lu</author><author>Yidong Yuan</author>
    <author>Wei Wang</author><author>Xuemin Lin</author>
    <title>Skyline queries</title>
    <booktitle>ICDE</booktitle><year>2001</year>
  </inproceedings>
  <inproceedings key="conf/adma/WangL05">
    <author>Wei Wang</author><author>Xuemin Lin</author>
    <title>Data stream processing</title>
    <booktitle>ADMA</booktitle><year>2005</year>
  </inproceedings>
  <article key="journals/x/YangY03">
    <author>Jiong Yang</author><author>Philip S. Yu</author>
    <title>Some article</title><journal>TKDE</journal><year>2003</year>
  </article>
</dblp>)";

}  // namespace

int main(int argc, char** argv) {
  using namespace distinct;

  FlagParser flags;
  flags.AddString("xml", "", "path to a dblp.xml (empty: embedded sample)");
  flags.AddString("name", "Wei Wang", "name to resolve");
  flags.AddInt64("min-refs", 0, "drop authors with fewer references");
  flags.AddDouble("min-sim", 1e-3, "merge threshold");
  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.Help().c_str());
    return 1;
  }

  XmlLoadOptions load_options;
  // Same bound as distinct_cli's --min-refs-per-author.
  auto min_refs = flags.GetIntInRange("min-refs", 0, 1 << 30);
  if (!min_refs.ok()) {
    std::fprintf(stderr, "%s\n", min_refs.status().ToString().c_str());
    return 1;
  }
  load_options.min_refs_per_author = *min_refs;

  StatusOr<XmlLoadResult> loaded = NotFoundError("unset");
  const std::string path = flags.GetString("xml");
  if (!path.empty()) {
    std::printf("loading %s ...\n", path.c_str());
    loaded = LoadDblpXmlFile(path, load_options);
  } else {
    std::printf("no --xml given; using the embedded 5-record sample\n");
    loaded = LoadDblpXml(kEmbeddedSample, load_options);
  }
  if (!loaded.ok()) {
    std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %lld records (%lld skipped)\n",
              static_cast<long long>(loaded->records_loaded),
              static_cast<long long>(loaded->records_skipped));
  auto stats = ComputeDblpStats(loaded->db);
  if (stats.ok()) {
    std::printf("%s\n", stats->DebugString().c_str());
  }

  DistinctConfig config;
  config.promotions = DblpDefaultPromotions();
  config.min_sim = flags.GetDouble("min-sim");
  // Supervised training needs a large corpus of rare names; fall back to
  // the unsupervised model when the database is small.
  config.supervised = loaded->db.TotalRows() > 50000;
  if (!config.supervised) {
    std::printf("database too small for auto-training; "
                "using uniform path weights\n");
  }

  auto engine = Distinct::Create(loaded->db, DblpReferenceSpec(), config);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }

  const std::string name = flags.GetString("name");
  auto result = engine->ResolveName(name);
  if (!result.ok()) {
    std::fprintf(stderr, "resolve: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("'%s': %zu references -> %d groups\n", name.c_str(),
              result->refs.size(), result->clustering.num_clusters);
  for (size_t i = 0; i < result->refs.size(); ++i) {
    std::printf("  ref %d -> group %d\n", result->refs[i],
                result->clustering.assignment[i]);
  }
  return 0;
}
