#include "xml/xml_parser.h"

#include <gtest/gtest.h>

namespace distinct {
namespace {

/// Records events as strings: "<name", ">name", "text".
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
    events.push_back("T:" + std::string(text));
  }

  std::vector<std::string> events;
};

TEST(XmlParserTest, SimpleDocument) {
  RecordingHandler handler;
  ASSERT_TRUE(XmlParser::Parse("<a><b>hi</b></a>", handler).ok());
  EXPECT_EQ(handler.events, (std::vector<std::string>{
                                "<a", "<b", "T:hi", ">b", ">a"}));
}

TEST(XmlParserTest, Attributes) {
  RecordingHandler handler;
  ASSERT_TRUE(
      XmlParser::Parse("<r key='conf/vldb/97' n=\"two\"/>", handler).ok());
  EXPECT_EQ(handler.events,
            (std::vector<std::string>{"<r key=conf/vldb/97 n=two", ">r"}));
}

TEST(XmlParserTest, SelfClosingFiresBothEvents) {
  RecordingHandler handler;
  ASSERT_TRUE(XmlParser::Parse("<a><b/></a>", handler).ok());
  EXPECT_EQ(handler.events,
            (std::vector<std::string>{"<a", "<b", ">b", ">a"}));
}

TEST(XmlParserTest, DeclarationCommentDoctypeSkipped) {
  RecordingHandler handler;
  const char* doc =
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE dblp SYSTEM \"dblp.dtd\" [ <!ENTITY x \"y\"> ]>\n"
      "<!-- a comment <with> tags -->\n"
      "<dblp></dblp>";
  ASSERT_TRUE(XmlParser::Parse(doc, handler).ok());
  EXPECT_EQ(handler.events, (std::vector<std::string>{"<dblp", ">dblp"}));
}

TEST(XmlParserTest, CdataPassedThroughVerbatim) {
  RecordingHandler handler;
  ASSERT_TRUE(
      XmlParser::Parse("<a><![CDATA[x < y & z]]></a>", handler).ok());
  EXPECT_EQ(handler.events,
            (std::vector<std::string>{"<a", "T:x < y & z", ">a"}));
}

TEST(XmlParserTest, EntityDecodingInText) {
  RecordingHandler handler;
  ASSERT_TRUE(XmlParser::Parse("<a>x &amp; y &lt;3</a>", handler).ok());
  EXPECT_EQ(handler.events[1], "T:x & y <3");
}

TEST(XmlParserTest, EntityDecodingInAttributes) {
  RecordingHandler handler;
  ASSERT_TRUE(XmlParser::Parse("<a t=\"x&amp;y\"/>", handler).ok());
  EXPECT_EQ(handler.events[0], "<a t=x&y");
}

TEST(XmlParserTest, TextOutsideRootIgnored) {
  RecordingHandler handler;
  ASSERT_TRUE(XmlParser::Parse("  \n<a>x</a>\n  ", handler).ok());
  EXPECT_EQ(handler.events,
            (std::vector<std::string>{"<a", "T:x", ">a"}));
}

TEST(XmlParserTest, MismatchedTagsRejected) {
  RecordingHandler handler;
  EXPECT_FALSE(XmlParser::Parse("<a><b></a></b>", handler).ok());
}

TEST(XmlParserTest, UnclosedElementRejected) {
  RecordingHandler handler;
  const Status status = XmlParser::Parse("<a><b></b>", handler);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("unclosed"), std::string::npos);
}

TEST(XmlParserTest, MalformedInputsRejected) {
  RecordingHandler handler;
  EXPECT_FALSE(XmlParser::Parse("<a", handler).ok());
  EXPECT_FALSE(XmlParser::Parse("<a attr></a>", handler).ok());
  EXPECT_FALSE(XmlParser::Parse("<a attr=value></a>", handler).ok());
  EXPECT_FALSE(XmlParser::Parse("<a attr=\"v></a>", handler).ok());
  EXPECT_FALSE(XmlParser::Parse("<!-- unterminated", handler).ok());
  EXPECT_FALSE(XmlParser::Parse("<1tag/>", handler).ok());
}

TEST(XmlParserTest, ErrorsCarryByteOffsets) {
  RecordingHandler handler;
  const Status status = XmlParser::Parse("<ok/><ok/><", handler);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("byte"), std::string::npos);
}

TEST(XmlParserTest, NestedSameName) {
  RecordingHandler handler;
  ASSERT_TRUE(XmlParser::Parse("<a><a>x</a></a>", handler).ok());
  EXPECT_EQ(handler.events,
            (std::vector<std::string>{"<a", "<a", "T:x", ">a", ">a"}));
}

TEST(DecodeXmlEntitiesTest, PredefinedEntities) {
  EXPECT_EQ(DecodeXmlEntities("&amp;&lt;&gt;&quot;&apos;"), "&<>\"'");
}

TEST(DecodeXmlEntitiesTest, NumericReferences) {
  EXPECT_EQ(DecodeXmlEntities("&#65;&#x42;"), "AB");
  EXPECT_EQ(DecodeXmlEntities("&#228;"), "ä");   // two-byte UTF-8
  EXPECT_EQ(DecodeXmlEntities("&#x20AC;"), "€");  // three-byte UTF-8
}

TEST(DecodeXmlEntitiesTest, LatinNamesForDblpAuthors) {
  EXPECT_EQ(DecodeXmlEntities("J&ouml;rg"), "Jörg");
  EXPECT_EQ(DecodeXmlEntities("Fran&ccedil;ois"), "François");
  EXPECT_EQ(DecodeXmlEntities("M&uuml;ller"), "Müller");
}

TEST(DecodeXmlEntitiesTest, UnknownAndMalformedPreserved) {
  EXPECT_EQ(DecodeXmlEntities("&unknown;"), "&unknown;");
  EXPECT_EQ(DecodeXmlEntities("a & b"), "a & b");
  EXPECT_EQ(DecodeXmlEntities("&#xZZ;"), "&#xZZ;");
  EXPECT_EQ(DecodeXmlEntities("&;"), "&;");
  EXPECT_EQ(DecodeXmlEntities("trailing &"), "trailing &");
}

TEST(XmlParserTest, DblpShapedRecord) {
  RecordingHandler handler;
  const char* doc =
      "<dblp><inproceedings key=\"conf/k\" mdate=\"2006-01-01\">"
      "<author>Wei Wang</author><author>Jiong Yang</author>"
      "<title>STING</title><booktitle>VLDB</booktitle>"
      "<year>1997</year></inproceedings></dblp>";
  ASSERT_TRUE(XmlParser::Parse(doc, handler).ok());
  // 7 start tags, 7 end tags, 5 text chunks.
  int starts = 0;
  int texts = 0;
  for (const std::string& event : handler.events) {
    if (event[0] == '<') ++starts;
    if (event[0] == 'T') ++texts;
  }
  EXPECT_EQ(starts, 7);
  EXPECT_EQ(texts, 5);
}

}  // namespace
}  // namespace distinct
