// Hardening tests for the push parser: chunk boundaries anywhere (including
// mid-tag and mid-entity), malformed input surfaced as Status instead of
// crashes or silent truncation, and the bounded-buffer OutOfRange guard.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "catalog/format.h"
#include "catalog/ingest.h"
#include "common/io_util.h"
#include "common/rng.h"
#include "dblp/xml_corpus.h"
#include "gtest/gtest.h"
#include "xml/xml_parser.h"

namespace distinct {
namespace {

/// Records events as strings: "<name attr=value", ">name", "T:text".
class RecordingHandler : public XmlHandler {
 public:
  void OnStartElement(std::string_view name,
                      const std::vector<XmlAttribute>& attributes) override {
    std::string event = "<" + std::string(name);
    for (const XmlAttribute& attribute : attributes) {
      event += " " + attribute.name + "=" + attribute.value;
    }
    events.push_back(event);
  }
  void OnEndElement(std::string_view name) override {
    events.push_back(">" + std::string(name));
  }
  void OnText(std::string_view text) override {
    // Text may arrive in several pieces under streaming; coalesce adjacent
    // runs so event sequences compare equal across chunkings.
    if (!events.empty() && events.back().rfind("T:", 0) == 0) {
      events.back() += text;
    } else {
      events.push_back("T:" + std::string(text));
    }
  }

  std::vector<std::string> events;
};

const char* kDblpShapedDoc =
    "<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?>\n"
    "<!DOCTYPE dblp SYSTEM \"dblp.dtd\">\n"
    "<dblp>\n"
    "<!-- a comment <with> angle brackets -->\n"
    "<article mdate=\"2002-01-03\" key=\"journals/tods/Chen76\">\n"
    "<author>Peter P. Chen</author>\n"
    "<title>The Entity-Relationship Model &amp; Friends "
    "&lt;rev. 2&gt;</title>\n"
    "<journal>ACM Trans. Database Syst.</journal>\n"
    "<year>1976</year>\n"
    "</article>\n"
    "<inproceedings key=\"conf/vldb/Gray81\">\n"
    "<author>Jim Gray</author>\n"
    "<title><![CDATA[Raw <bytes> & stuff]]></title>\n"
    "<year>1981</year>\n"
    "</inproceedings>\n"
    "</dblp>\n";

std::vector<std::string> ParseWhole(std::string_view doc) {
  RecordingHandler handler;
  EXPECT_TRUE(XmlParser::Parse(doc, handler).ok());
  return handler.events;
}

std::vector<std::string> ParseChunked(std::string_view doc,
                                      size_t chunk_bytes) {
  RecordingHandler handler;
  XmlStreamParser parser(handler);
  for (size_t at = 0; at < doc.size(); at += chunk_bytes) {
    EXPECT_TRUE(parser.Feed(doc.substr(at, chunk_bytes)).ok())
        << "chunk at " << at;
  }
  EXPECT_TRUE(parser.Finish().ok());
  EXPECT_EQ(parser.bytes_consumed(), doc.size());
  return handler.events;
}

TEST(XmlStreamTest, ByteAtATimeFeedMatchesWholeDocumentParse) {
  const std::vector<std::string> whole = ParseWhole(kDblpShapedDoc);
  EXPECT_EQ(ParseChunked(kDblpShapedDoc, 1), whole);
}

TEST(XmlStreamTest, ArbitraryChunkSizesMatchWholeDocumentParse) {
  const std::vector<std::string> whole = ParseWhole(kDblpShapedDoc);
  for (size_t chunk : {2, 3, 7, 16, 61, 4096}) {
    EXPECT_EQ(ParseChunked(kDblpShapedDoc, chunk), whole)
        << "chunk size " << chunk;
  }
}

TEST(XmlStreamTest, EntitySplitAcrossChunkBoundaryDecodes) {
  RecordingHandler handler;
  XmlStreamParser parser(handler);
  ASSERT_TRUE(parser.Feed("<t>fish &am").ok());
  ASSERT_TRUE(parser.Feed("p; chips</t>").ok());
  ASSERT_TRUE(parser.Finish().ok());
  EXPECT_EQ(handler.events,
            (std::vector<std::string>{"<t", "T:fish & chips", ">t"}));
}

TEST(XmlStreamTest, TruncatedEntityAtEndOfInputKeptLiterally) {
  // DBLP-in-the-wild: an ampersand that never becomes a reference must come
  // through literally, not hang the parser waiting for ';'.
  RecordingHandler handler;
  XmlStreamParser parser(handler);
  ASSERT_TRUE(parser.Feed("<t>Simon &am</t>").ok());
  ASSERT_TRUE(parser.Finish().ok());
  EXPECT_EQ(handler.events,
            (std::vector<std::string>{"<t", "T:Simon &am", ">t"}));
}

TEST(XmlStreamTest, CrlfInAttributeValueNormalizesToOneSpace) {
  RecordingHandler handler;
  XmlStreamParser parser(handler);
  ASSERT_TRUE(parser.Feed("<r mdate=\"2002\r\n01\" k=\"a\tb\nc\"/>").ok());
  ASSERT_TRUE(parser.Finish().ok());
  EXPECT_EQ(handler.events,
            (std::vector<std::string>{"<r mdate=2002 01 k=a b c", ">r"}));
}

TEST(XmlStreamTest, CrlfSplitAcrossChunksStillOneSpace) {
  RecordingHandler handler;
  XmlStreamParser parser(handler);
  ASSERT_TRUE(parser.Feed("<r mdate=\"2002\r").ok());
  ASSERT_TRUE(parser.Feed("\n01\"/>").ok());
  ASSERT_TRUE(parser.Finish().ok());
  EXPECT_EQ(handler.events,
            (std::vector<std::string>{"<r mdate=2002 01", ">r"}));
}

TEST(XmlStreamTest, OversizedStartTagIsOutOfRange) {
  RecordingHandler handler;
  XmlStreamOptions options;
  options.max_token_bytes = 64;
  XmlStreamParser parser(handler, options);
  const std::string huge =
      "<r key=\"" + std::string(1000, 'x');  // never terminated
  Status status = parser.Feed(huge);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange) << status.ToString();
  // Errors are sticky: the stream stays failed with the same code.
  EXPECT_EQ(parser.Feed("\"/>").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(parser.Finish().code(), StatusCode::kOutOfRange);
}

TEST(XmlStreamTest, OversizedCommentIsOutOfRange) {
  RecordingHandler handler;
  XmlStreamOptions options;
  options.max_token_bytes = 64;
  XmlStreamParser parser(handler, options);
  const std::string doc = "<a><!-- " + std::string(1000, '-');
  EXPECT_EQ(parser.Feed(doc).code(), StatusCode::kOutOfRange);
}

TEST(XmlStreamTest, BoundedBufferAcceptsLargeTextBetweenTags) {
  // Character data is not one construct — it streams through in pieces, so
  // text far larger than max_token_bytes must still parse.
  RecordingHandler handler;
  XmlStreamOptions options;
  options.max_token_bytes = 256;
  XmlStreamParser parser(handler, options);
  const std::string body(64 * 1024, 't');
  ASSERT_TRUE(parser.Feed("<t>").ok());
  for (size_t at = 0; at < body.size(); at += 1000) {
    ASSERT_TRUE(parser.Feed(std::string_view(body).substr(at, 1000)).ok());
  }
  ASSERT_TRUE(parser.Feed("</t>").ok());
  ASSERT_TRUE(parser.Finish().ok());
  ASSERT_EQ(handler.events.size(), 3u);
  EXPECT_EQ(handler.events[1], "T:" + body);
}

TEST(XmlStreamTest, UnterminatedCommentAtEofIsDataLoss) {
  RecordingHandler handler;
  XmlStreamParser parser(handler);
  ASSERT_TRUE(parser.Feed("<a><!-- never closed").ok());
  EXPECT_EQ(parser.Finish().code(), StatusCode::kDataLoss);
}

TEST(XmlStreamTest, UnterminatedCdataAtEofIsDataLoss) {
  RecordingHandler handler;
  XmlStreamParser parser(handler);
  ASSERT_TRUE(parser.Feed("<a><![CDATA[half").ok());
  EXPECT_EQ(parser.Finish().code(), StatusCode::kDataLoss);
}

TEST(XmlStreamTest, UnterminatedStartTagAtEofIsDataLoss) {
  RecordingHandler handler;
  XmlStreamParser parser(handler);
  ASSERT_TRUE(parser.Feed("<article key=\"conf/never").ok());
  EXPECT_EQ(parser.Finish().code(), StatusCode::kDataLoss);
}

TEST(XmlStreamTest, UnclosedElementAtEofIsDataLoss) {
  RecordingHandler handler;
  XmlStreamParser parser(handler);
  ASSERT_TRUE(parser.Feed("<dblp><article>").ok());
  Status status = parser.Finish();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.ToString().find("article"), std::string::npos);
}

TEST(XmlStreamTest, MismatchedEndTagIsDataLoss) {
  RecordingHandler handler;
  XmlStreamParser parser(handler);
  EXPECT_EQ(parser.Feed("<a><b></a>").code(), StatusCode::kDataLoss);
}

TEST(XmlStreamTest, DocumentWithoutRootElementIsDataLoss) {
  for (const std::string_view doc :
       {"", "  \n\t\r\n", "<!-- only a comment -->\n",
        "<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?>\n",
        "<?xml version=\"1.0\"?>\n<!DOCTYPE dblp SYSTEM \"dblp.dtd\">\n",
        "plain text, no markup at all\n",
        "id,name\n0,Wei Wang\n1,Jiong Yang\n"}) {
    SCOPED_TRACE(::testing::Message() << "doc: '" << doc << "'");
    RecordingHandler whole;
    const Status parsed = XmlParser::Parse(doc, whole);
    EXPECT_EQ(parsed.code(), StatusCode::kDataLoss) << parsed.ToString();
    EXPECT_NE(parsed.ToString().find("no root element"), std::string::npos);

    RecordingHandler chunked;
    XmlStreamParser parser(chunked);
    for (size_t at = 0; at < doc.size(); ++at) {
      ASSERT_TRUE(parser.Feed(doc.substr(at, 1)).ok()) << "byte " << at;
    }
    EXPECT_EQ(parser.Finish().code(), StatusCode::kDataLoss);
  }
}

TEST(XmlStreamTest, FeedAfterFinishIsFailedPrecondition) {
  RecordingHandler handler;
  XmlStreamParser parser(handler);
  ASSERT_TRUE(parser.Feed("<a/>").ok());
  ASSERT_TRUE(parser.Finish().ok());
  EXPECT_EQ(parser.Feed("<b/>").code(), StatusCode::kFailedPrecondition);
}

TEST(XmlStreamTest, EmptyChunksAreHarmless) {
  RecordingHandler handler;
  XmlStreamParser parser(handler);
  ASSERT_TRUE(parser.Feed("").ok());
  ASSERT_TRUE(parser.Feed("<a/>").ok());
  ASSERT_TRUE(parser.Feed("").ok());
  ASSERT_TRUE(parser.Finish().ok());
  EXPECT_EQ(handler.events, (std::vector<std::string>{"<a", ">a"}));
}

/// What one parse of a document produced: its coalesced events and status.
struct ParseOutcome {
  std::vector<std::string> events;
  Status status = Status::Ok();
};

ParseOutcome ParseWholeDocument(std::string_view doc) {
  ParseOutcome outcome;
  RecordingHandler handler;
  outcome.status = XmlParser::Parse(doc, handler);
  outcome.events = std::move(handler.events);
  return outcome;
}

ParseOutcome ParseByteAtATime(std::string_view doc) {
  ParseOutcome outcome;
  RecordingHandler handler;
  XmlStreamParser parser(handler);
  for (size_t at = 0; at < doc.size() && outcome.status.ok(); ++at) {
    outcome.status = parser.Feed(doc.substr(at, 1));
  }
  if (outcome.status.ok()) {
    outcome.status = parser.Finish();
  }
  outcome.events = std::move(handler.events);
  return outcome;
}

/// The byte offset an XML error message names ("... at byte N: ..."), or
/// -1 when it names none.
int64_t ErrorOffset(const Status& status) {
  const std::string message = status.ToString();
  const size_t at = message.find("at byte ");
  if (at == std::string::npos) {
    return -1;
  }
  return std::stoll(message.substr(at + 8));
}

/// `edits` seeded edits of `doc`, each a byte replaced by another, a run of
/// up to 16 bytes deleted, up to 8 bytes inserted (mostly markup
/// characters), or the document truncated.
std::string Mutate(std::string doc, int edits, Rng& rng) {
  static constexpr char kMarkup[] = "<>&;#\"'/=!?[]-x \r\n";
  for (int edit = 0; edit < edits && !doc.empty(); ++edit) {
    const auto at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(doc.size()) - 1));
    switch (rng.UniformInt(0, 3)) {
      case 0:
        doc[at] = static_cast<char>(doc[at] ^ rng.UniformInt(1, 255));
        break;
      case 1:
        doc.erase(at, static_cast<size_t>(rng.UniformInt(1, 16)));
        break;
      case 2: {
        std::string inserted;
        for (int64_t i = rng.UniformInt(1, 8); i > 0; --i) {
          inserted += rng.Bernoulli(0.8)
                          ? kMarkup[rng.UniformInt(0, sizeof(kMarkup) - 2)]
                          : static_cast<char>(rng.UniformInt(0, 255));
        }
        doc.insert(at, inserted);
        break;
      }
      default:
        doc.resize(at);
        break;
    }
  }
  return doc;
}

// 600 seeded edits, four per document, of a ~200-reference synthetic
// dblp.xml (entities in titles, CRLF inside attribute values, <www>
// records): the whole-document parse and a byte-at-a-time feed agree on
// every event and on the status; every error is DataLoss or OutOfRange at a
// byte offset inside the document; and ingest returns a Status, committing
// no manifest when it fails. Four edits per document keep the
// byte-at-a-time feeds, which cost ~35x the whole-document parse per byte,
// under a second.
TEST(XmlStreamMutatorTest, SeededMutationsParseAlikeAndFailWithAnOffset) {
  const std::string base = ::testing::TempDir() + "/xml_stream_mutator";
  const std::string corpus_path = base + ".xml";
  const std::string mutated_path = base + ".mutated.xml";
  const std::string catalog_dir = base + ".catalog";
  XmlCorpusConfig config;
  config.seed = 20070415;
  config.target_refs = 200;
  config.entity_title_prob = 0.3;
  config.noise_element_prob = 0.1;
  ASSERT_TRUE(WriteSyntheticDblpXml(corpus_path, config).ok());
  auto corpus = ReadFileToString(corpus_path);
  ASSERT_TRUE(corpus.ok());
  ASSERT_NE(corpus->find("\r\n\" key="), std::string::npos);
  ASSERT_NE(corpus->find("&amp;"), std::string::npos);
  ASSERT_NE(corpus->find("<www "), std::string::npos);
  ASSERT_TRUE(ParseWholeDocument(*corpus).status.ok());

  Rng rng(29);
  int failed = 0;
  int ingested = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const std::string doc = Mutate(*corpus, /*edits=*/4, rng);
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    const ParseOutcome whole = ParseWholeDocument(doc);
    const ParseOutcome bytewise = ParseByteAtATime(doc);
    ASSERT_EQ(bytewise.status.ToString(), whole.status.ToString());
    ASSERT_EQ(bytewise.events, whole.events);
    if (!whole.status.ok()) {
      ++failed;
      EXPECT_TRUE(whole.status.code() == StatusCode::kDataLoss ||
                  whole.status.code() == StatusCode::kOutOfRange)
          << whole.status.ToString();
      const int64_t offset = ErrorOffset(whole.status);
      EXPECT_GE(offset, 0) << whole.status.ToString();
      EXPECT_LE(offset, static_cast<int64_t>(doc.size()))
          << whole.status.ToString();
    }
    // Ingest every third document: each ingest writes and syncs files.
    if (trial % 3 != 0) {
      continue;
    }
    ++ingested;
    ASSERT_TRUE(WriteStringToFile(mutated_path, doc).ok());
    std::filesystem::remove_all(catalog_dir);
    auto stats = catalog::IngestDblpXml(mutated_path, catalog_dir);
    if (!whole.status.ok()) {
      EXPECT_FALSE(stats.ok());
    }
    if (!stats.ok()) {
      EXPECT_FALSE(std::filesystem::exists(
          std::filesystem::path(catalog_dir) / catalog::kManifestFile))
          << stats.status().ToString();
    }
  }
  // Most mutations must break the document, or this shows nothing.
  EXPECT_GT(failed, 100);
  EXPECT_EQ(ingested, 50);
  std::filesystem::remove(corpus_path);
  std::filesystem::remove(mutated_path);
  std::filesystem::remove_all(catalog_dir);
}

}  // namespace
}  // namespace distinct
