// Hardening tests for the push parser: chunk boundaries anywhere (including
// mid-tag and mid-entity), malformed input surfaced as Status instead of
// crashes or silent truncation, and the bounded-buffer OutOfRange guard.

#include <string>
#include <vector>

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

}  // namespace
}  // namespace distinct
