// A small SAX-style XML parser.
//
// Scope: enough of XML 1.0 to stream `dblp.xml`-shaped documents — elements,
// attributes, character data, comments, CDATA, processing instructions, a
// skipped DOCTYPE, numeric character references, the predefined entities,
// and the ISO latin named entities DBLP uses for author names. It is not a
// validating parser.
//
// Two entry points share one implementation; neither opens files, so
// each caller reads its input its own way:
//   * XmlParser::Parse — one in-memory document in one call (the DBLP
//     loader reads the whole file first).
//   * XmlStreamParser — push chunks of any size with Feed(); the parser
//     holds only the bytes of the one construct currently straddling a
//     chunk boundary (a tag, comment, CDATA section, or a possible partial
//     entity reference at the tail of a text run), so a multi-GB document
//     parses in O(max_token_bytes) memory. A single construct larger than
//     the bound is rejected with OutOfRange instead of being truncated.
//     Catalog ingest feeds it from its own bounded read loop.

#ifndef DISTINCT_XML_XML_PARSER_H_
#define DISTINCT_XML_XML_PARSER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace distinct {

struct XmlAttribute {
  std::string name;
  std::string value;  // entity-decoded, whitespace-normalized
};

/// Receives parse events. Default implementations ignore everything, so
/// handlers override only what they consume.
class XmlHandler {
 public:
  virtual ~XmlHandler() = default;

  /// `<name attr="v">` or `<name/>` (the latter also fires OnEndElement).
  virtual void OnStartElement(std::string_view name,
                              const std::vector<XmlAttribute>& attributes);

  virtual void OnEndElement(std::string_view name);

  /// Entity-decoded character data; may arrive in multiple chunks.
  virtual void OnText(std::string_view text);
};

struct XmlStreamOptions {
  /// Upper bound on the bytes of ONE construct (start tag with all its
  /// attributes, comment, CDATA section, DOCTYPE, or processing
  /// instruction). A construct still unterminated past this bound fails
  /// with OutOfRange — the guard that keeps the carry-over buffer bounded
  /// on hostile or corrupt input.
  size_t max_token_bytes = 1 << 20;
};

/// Incremental push parser: call Feed() with consecutive chunks of the
/// document (any sizes, including splitting tags/entities anywhere), then
/// Finish() exactly once. Errors are sticky — after a non-OK return every
/// later call returns the same status. Events fire during Feed/Finish in
/// document order; OnText may deliver one text run in several pieces.
class XmlStreamParser {
 public:
  explicit XmlStreamParser(XmlHandler& handler, XmlStreamOptions options = {});

  Status Feed(std::string_view chunk);

  /// Signals end of input: flushes trailing text and checks that no
  /// element, comment, CDATA section, DOCTYPE, or entity-bearing tag is
  /// left open, and that an element was opened at all (DataLoss "no root
  /// element" for an empty, whitespace-only, comment- or prolog-only, or
  /// plain-text document).
  Status Finish();

  /// Bytes of the document fully consumed so far (error offsets refer to
  /// this stream position).
  size_t bytes_consumed() const { return consumed_; }

 private:
  /// Parses every complete construct available in buffer_; leaves an
  /// incomplete tail (if any) for the next Feed. `at_eof` turns
  /// "need more bytes" into the matching unterminated-construct error.
  Status Pump(bool at_eof);

  XmlHandler* handler_;
  XmlStreamOptions options_;
  std::string buffer_;  // unconsumed tail; bounded by max_token_bytes
  size_t consumed_ = 0;  // global offset of buffer_[0]
  std::vector<std::string> open_elements_;
  bool saw_element_ = false;  // any start tag parsed yet
  Status failed_ = Status::Ok();  // sticky error
  bool finished_ = false;
};

/// Streaming parser over an in-memory document.
class XmlParser {
 public:
  /// Parses `content`, firing events on `handler`. Returns the first
  /// syntax error (with byte offset) or OK. Checks that tags balance and
  /// that there is a root element (XmlStreamParser::Finish).
  static Status Parse(std::string_view content, XmlHandler& handler);
};

/// Decodes entity and character references in `text` ("&amp;" -> "&").
/// Unknown entities are preserved literally. Exposed for tests.
std::string DecodeXmlEntities(std::string_view text);

}  // namespace distinct

#endif  // DISTINCT_XML_XML_PARSER_H_
