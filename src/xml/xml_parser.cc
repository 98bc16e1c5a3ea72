#include "xml/xml_parser.h"

#include <utility>

#include "common/string_util.h"

namespace distinct {
namespace {

struct NamedEntity {
  const char* name;
  const char* utf8;
};

// Predefined XML entities plus the latin-1 names DBLP author strings use.
constexpr NamedEntity kNamedEntities[] = {
    {"amp", "&"},      {"lt", "<"},       {"gt", ">"},
    {"quot", "\""},    {"apos", "'"},     {"nbsp", " "},
    {"auml", "ä"}, {"ouml", "ö"}, {"uuml", "ü"},
    {"Auml", "Ä"}, {"Ouml", "Ö"}, {"Uuml", "Ü"},
    {"szlig", "ß"}, {"eacute", "é"}, {"egrave", "è"},
    {"aacute", "á"}, {"agrave", "à"}, {"iacute", "í"},
    {"oacute", "ó"}, {"uacute", "ú"}, {"ccedil", "ç"},
    {"ntilde", "ñ"}, {"atilde", "ã"}, {"otilde", "õ"},
    {"acirc", "â"}, {"ecirc", "ê"}, {"icirc", "î"},
    {"ocirc", "ô"}, {"ucirc", "û"}, {"aring", "å"},
    {"oslash", "ø"}, {"aelig", "æ"},
};

/// An entity reference body never exceeds this many bytes between '&' and
/// ';' (DecodeXmlEntities treats longer runs as a literal ampersand). The
/// streaming parser holds back at most this much text at a chunk boundary.
constexpr size_t kMaxEntityBody = 12;

void AppendUtf8(std::string& out, uint32_t codepoint) {
  if (codepoint <= 0x7f) {
    out += static_cast<char>(codepoint);
  } else if (codepoint <= 0x7ff) {
    out += static_cast<char>(0xc0 | (codepoint >> 6));
    out += static_cast<char>(0x80 | (codepoint & 0x3f));
  } else if (codepoint <= 0xffff) {
    out += static_cast<char>(0xe0 | (codepoint >> 12));
    out += static_cast<char>(0x80 | ((codepoint >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (codepoint & 0x3f));
  } else {
    out += static_cast<char>(0xf0 | (codepoint >> 18));
    out += static_cast<char>(0x80 | ((codepoint >> 12) & 0x3f));
    out += static_cast<char>(0x80 | ((codepoint >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (codepoint & 0x3f));
  }
}

bool IsNameStartChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool IsNameChar(char c) {
  return IsNameStartChar(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

bool IsXmlSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// XML attribute-value normalization (spec §3.3.3, the non-validating
/// subset): CRLF and lone CR/LF/TAB become a single space each. Real DBLP
/// dumps carry hard-wrapped attribute values; without this a mdate/key
/// split across lines keeps a raw \r that corrupts downstream keys.
std::string NormalizeAttributeWhitespace(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    const char c = raw[i];
    if (c == '\r') {
      if (i + 1 < raw.size() && raw[i + 1] == '\n') {
        ++i;  // CRLF collapses to one space
      }
      out += ' ';
    } else if (c == '\n' || c == '\t') {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Cursor over one complete construct, reporting errors at global stream
/// offsets (`base` is the stream position of text[0]).
class Cursor {
 public:
  Cursor(std::string_view text, size_t base) : text_(text), base_(base) {}

  bool AtEnd() const { return pos_ >= text_.size(); }
  size_t pos() const { return pos_; }
  char Peek() const { return text_[pos_]; }
  void Advance(size_t n = 1) { pos_ += n; }

  bool ConsumePrefix(std::string_view prefix) {
    if (text_.substr(pos_, prefix.size()) == prefix) {
      pos_ += prefix.size();
      return true;
    }
    return false;
  }

  void SkipSpace() {
    while (!AtEnd() && IsXmlSpace(Peek())) {
      Advance();
    }
  }

  std::string_view Slice(size_t begin, size_t end) const {
    return text_.substr(begin, end - begin);
  }

  Status Error(const std::string& what) const {
    return DataLossError(StrFormat("XML parse error at byte %zu: %s",
                                   base_ + pos_, what.c_str()));
  }

 private:
  std::string_view text_;
  size_t base_ = 0;
  size_t pos_ = 0;
};

StatusOr<std::string> ReadName(Cursor& cursor) {
  if (cursor.AtEnd() || !IsNameStartChar(cursor.Peek())) {
    return cursor.Error("expected a name");
  }
  const size_t begin = cursor.pos();
  while (!cursor.AtEnd() && IsNameChar(cursor.Peek())) {
    cursor.Advance();
  }
  return std::string(cursor.Slice(begin, cursor.pos()));
}

StatusOr<std::vector<XmlAttribute>> ReadAttributes(Cursor& cursor) {
  std::vector<XmlAttribute> attributes;
  while (true) {
    cursor.SkipSpace();
    if (cursor.AtEnd()) {
      return cursor.Error("unterminated start tag");
    }
    const char c = cursor.Peek();
    if (c == '>' || c == '/' || c == '?') {
      return attributes;
    }
    auto name = ReadName(cursor);
    if (!name.ok()) {
      return name.status();
    }
    cursor.SkipSpace();
    if (cursor.AtEnd() || cursor.Peek() != '=') {
      return cursor.Error("expected '=' after attribute name");
    }
    cursor.Advance();
    cursor.SkipSpace();
    if (cursor.AtEnd() || (cursor.Peek() != '"' && cursor.Peek() != '\'')) {
      return cursor.Error("expected quoted attribute value");
    }
    const char quote = cursor.Peek();
    cursor.Advance();
    const size_t begin = cursor.pos();
    while (!cursor.AtEnd() && cursor.Peek() != quote) {
      cursor.Advance();
    }
    if (cursor.AtEnd()) {
      return cursor.Error("unterminated attribute value");
    }
    attributes.push_back(XmlAttribute{
        *std::move(name),
        DecodeXmlEntities(NormalizeAttributeWhitespace(
            cursor.Slice(begin, cursor.pos())))});
    cursor.Advance();  // closing quote
  }
}

/// True when `text` could still grow into `full` ("<!DOC" vs "<!DOCTYPE").
bool IsProperPrefix(std::string_view text, std::string_view full) {
  return text.size() < full.size() && full.substr(0, text.size()) == text;
}

}  // namespace

void XmlHandler::OnStartElement(std::string_view /*name*/,
                                const std::vector<XmlAttribute>& /*attrs*/) {}
void XmlHandler::OnEndElement(std::string_view /*name*/) {}
void XmlHandler::OnText(std::string_view /*text*/) {}

std::string DecodeXmlEntities(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (c != '&') {
      out += c;
      ++i;
      continue;
    }
    const size_t semi = text.find(';', i + 1);
    if (semi == std::string_view::npos || semi - i > kMaxEntityBody) {
      out += c;  // Not a reference; keep the ampersand literally.
      ++i;
      continue;
    }
    const std::string_view body = text.substr(i + 1, semi - i - 1);
    if (!body.empty() && body[0] == '#') {
      uint32_t codepoint = 0;
      bool valid = body.size() > 1;
      if (body.size() > 2 && (body[1] == 'x' || body[1] == 'X')) {
        for (size_t k = 2; k < body.size() && valid; ++k) {
          const char h = body[k];
          codepoint <<= 4;
          if (h >= '0' && h <= '9') {
            codepoint |= static_cast<uint32_t>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            codepoint |= static_cast<uint32_t>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            codepoint |= static_cast<uint32_t>(h - 'A' + 10);
          } else {
            valid = false;
          }
        }
        valid = valid && body.size() > 2;
      } else {
        for (size_t k = 1; k < body.size() && valid; ++k) {
          if (body[k] < '0' || body[k] > '9') {
            valid = false;
          } else {
            codepoint = codepoint * 10 + static_cast<uint32_t>(body[k] - '0');
          }
        }
      }
      if (valid && codepoint > 0 && codepoint <= 0x10ffff) {
        AppendUtf8(out, codepoint);
        i = semi + 1;
        continue;
      }
    } else {
      bool matched = false;
      for (const NamedEntity& entity : kNamedEntities) {
        if (body == entity.name) {
          out += entity.utf8;
          matched = true;
          break;
        }
      }
      if (matched) {
        i = semi + 1;
        continue;
      }
    }
    out += c;  // Unknown reference: preserve literally.
    ++i;
  }
  return out;
}

XmlStreamParser::XmlStreamParser(XmlHandler& handler, XmlStreamOptions options)
    : handler_(&handler), options_(options) {}

Status XmlStreamParser::Pump(bool at_eof) {
  // `start` walks buffer_ over complete constructs; the consumed prefix is
  // erased once on exit so the carry-over allocation stays bounded.
  size_t start = 0;
  Status status = Status::Ok();

  auto error_at = [&](size_t offset, const std::string& what) {
    return DataLossError(StrFormat("XML parse error at byte %zu: %s",
                                   consumed_ + offset, what.c_str()));
  };

  while (start < buffer_.size() && status.ok()) {
    const std::string_view rest =
        std::string_view(buffer_).substr(start);

    if (rest[0] != '<') {
      // Character data up to the next tag.
      size_t lt = rest.find('<');
      size_t emit_end = lt == std::string_view::npos ? rest.size() : lt;
      if (lt == std::string_view::npos && !at_eof) {
        // Hold back a possible partial entity reference at the tail: a
        // '&' with no ';' yet could complete in the next chunk. Runs
        // longer than an entity body can't, and stay literal.
        const size_t amp = rest.rfind('&');
        if (amp != std::string_view::npos &&
            rest.find(';', amp) == std::string_view::npos &&
            rest.size() - amp <= kMaxEntityBody + 1) {
          emit_end = amp;
        }
        if (emit_end == 0) {
          break;  // need more bytes
        }
      }
      if (!open_elements_.empty()) {
        const std::string decoded =
            DecodeXmlEntities(rest.substr(0, emit_end));
        if (!decoded.empty()) {
          handler_->OnText(decoded);
        }
      }
      start += emit_end;
      continue;
    }

    // A markup construct. Classification needs up to 9 bytes
    // ("<![CDATA["); wait for them when the prefix is still ambiguous.
    if (!at_eof && (IsProperPrefix(rest, "<!--") ||
                    IsProperPrefix(rest, "<![CDATA[") ||
                    IsProperPrefix(rest, "<!DOCTYPE"))) {
      break;  // need more bytes
    }
    const size_t pending = buffer_.size() - start;
    const bool over_budget = pending > options_.max_token_bytes;

    if (rest.rfind("<!--", 0) == 0) {
      const size_t end = rest.find("-->", 4);
      if (end == std::string_view::npos) {
        if (over_budget) {
          status = OutOfRangeError(StrFormat(
              "XML parse error at byte %zu: comment exceeds the %zu-byte "
              "token buffer", consumed_ + start, options_.max_token_bytes));
        } else if (at_eof) {
          status = error_at(start + 4, "unterminated comment");
        }
        break;
      }
      start += end + 3;
      continue;
    }

    if (rest.rfind("<![CDATA[", 0) == 0) {
      const size_t end = rest.find("]]>", 9);
      if (end == std::string_view::npos) {
        if (over_budget) {
          status = OutOfRangeError(StrFormat(
              "XML parse error at byte %zu: CDATA section exceeds the "
              "%zu-byte token buffer", consumed_ + start,
              options_.max_token_bytes));
        } else if (at_eof) {
          status = error_at(start + 9, "unterminated CDATA section");
        }
        break;
      }
      if (!open_elements_.empty()) {
        handler_->OnText(rest.substr(9, end - 9));
      }
      start += end + 3;
      continue;
    }

    if (rest.rfind("<!DOCTYPE", 0) == 0) {
      // Skip, honoring an optional internal subset in brackets.
      int depth = 0;
      size_t end = std::string_view::npos;
      for (size_t i = 9; i < rest.size(); ++i) {
        const char c = rest[i];
        if (c == '[') {
          ++depth;
        } else if (c == ']') {
          --depth;
        } else if (c == '>' && depth <= 0) {
          end = i;
          break;
        }
      }
      if (end == std::string_view::npos) {
        if (over_budget) {
          status = OutOfRangeError(StrFormat(
              "XML parse error at byte %zu: DOCTYPE exceeds the %zu-byte "
              "token buffer", consumed_ + start, options_.max_token_bytes));
        } else if (at_eof) {
          status = error_at(start + 9, "unterminated DOCTYPE");
        }
        break;
      }
      start += end + 1;
      continue;
    }

    if (rest.rfind("<?", 0) == 0) {
      const size_t end = rest.find("?>", 2);
      if (end == std::string_view::npos) {
        if (over_budget) {
          status = OutOfRangeError(StrFormat(
              "XML parse error at byte %zu: processing instruction exceeds "
              "the %zu-byte token buffer", consumed_ + start,
              options_.max_token_bytes));
        } else if (at_eof) {
          status = error_at(start + 2, "unterminated processing instruction");
        }
        break;
      }
      start += end + 2;
      continue;
    }

    if (rest.rfind("</", 0) == 0) {
      const size_t end = rest.find('>', 2);
      if (end == std::string_view::npos) {
        if (over_budget) {
          status = OutOfRangeError(StrFormat(
              "XML parse error at byte %zu: end tag exceeds the %zu-byte "
              "token buffer", consumed_ + start, options_.max_token_bytes));
        } else if (at_eof) {
          status = error_at(start + 2, "malformed end tag");
        }
        break;
      }
      Cursor cursor(rest.substr(0, end + 1), consumed_ + start);
      cursor.Advance(2);
      cursor.SkipSpace();
      auto name = ReadName(cursor);
      if (!name.ok()) {
        status = name.status();
        break;
      }
      cursor.SkipSpace();
      if (cursor.AtEnd() || cursor.Peek() != '>') {
        status = cursor.Error("malformed end tag");
        break;
      }
      if (open_elements_.empty() || open_elements_.back() != *name) {
        status = cursor.Error("mismatched end tag </" + *name + ">");
        break;
      }
      handler_->OnEndElement(*name);
      open_elements_.pop_back();
      start += end + 1;
      continue;
    }

    // Start tag. Find its closing '>' outside quoted attribute values
    // (XML allows a literal '>' inside quotes).
    {
      size_t end = std::string_view::npos;
      char quote = '\0';
      for (size_t i = 1; i < rest.size(); ++i) {
        const char c = rest[i];
        if (quote != '\0') {
          if (c == quote) {
            quote = '\0';
          }
        } else if (c == '"' || c == '\'') {
          quote = c;
        } else if (c == '>') {
          end = i;
          break;
        }
      }
      if (end == std::string_view::npos) {
        if (over_budget) {
          status = OutOfRangeError(StrFormat(
              "XML parse error at byte %zu: start tag exceeds the %zu-byte "
              "token buffer", consumed_ + start, options_.max_token_bytes));
        } else if (at_eof) {
          // Distinguish "<" + garbage from a genuinely truncated tag so
          // the message names what was being parsed.
          Cursor cursor(rest, consumed_ + start);
          cursor.Advance(1);
          auto name = ReadName(cursor);
          if (!name.ok()) {
            status = name.status();
          } else {
            auto attributes = ReadAttributes(cursor);
            status = attributes.ok()
                         ? cursor.Error("unterminated start tag")
                         : attributes.status();
          }
        }
        break;
      }
      Cursor cursor(rest.substr(0, end + 1), consumed_ + start);
      cursor.Advance(1);  // '<'
      auto name = ReadName(cursor);
      if (!name.ok()) {
        status = name.status();
        break;
      }
      auto attributes = ReadAttributes(cursor);
      if (!attributes.ok()) {
        status = attributes.status();
        break;
      }
      saw_element_ = true;
      if (cursor.ConsumePrefix("/>")) {
        handler_->OnStartElement(*name, *attributes);
        handler_->OnEndElement(*name);
      } else if (!cursor.AtEnd() && cursor.Peek() == '>') {
        handler_->OnStartElement(*name, *attributes);
        open_elements_.push_back(*std::move(name));
      } else {
        status = cursor.Error("malformed start tag <" + *name + ">");
        break;
      }
      start += end + 1;
      continue;
    }
  }

  consumed_ += start;
  buffer_.erase(0, start);
  if (status.ok() && buffer_.size() > options_.max_token_bytes) {
    status = OutOfRangeError(StrFormat(
        "XML parse error at byte %zu: construct exceeds the %zu-byte token "
        "buffer", consumed_, options_.max_token_bytes));
  }
  return status;
}

Status XmlStreamParser::Feed(std::string_view chunk) {
  if (!failed_.ok()) {
    return failed_;
  }
  if (finished_) {
    failed_ = FailedPreconditionError("XmlStreamParser: Feed after Finish");
    return failed_;
  }
  buffer_.append(chunk.data(), chunk.size());
  failed_ = Pump(/*at_eof=*/false);
  return failed_;
}

Status XmlStreamParser::Finish() {
  if (!failed_.ok()) {
    return failed_;
  }
  if (finished_) {
    failed_ = FailedPreconditionError("XmlStreamParser: Finish called twice");
    return failed_;
  }
  finished_ = true;
  failed_ = Pump(/*at_eof=*/true);
  if (!failed_.ok()) {
    return failed_;
  }
  // Both errors sit at the end of the input.
  const size_t end = consumed_ + buffer_.size();
  if (!open_elements_.empty()) {
    failed_ = DataLossError(StrFormat(
        "XML parse error at byte %zu: unclosed element <%s>", end,
        open_elements_.back().c_str()));
  } else if (!saw_element_) {
    failed_ = DataLossError(
        StrFormat("XML parse error at byte %zu: no root element", end));
  }
  return failed_;
}

Status XmlParser::Parse(std::string_view content, XmlHandler& handler) {
  XmlStreamParser parser(handler);
  if (Status status = parser.Feed(content); !status.ok()) {
    return status;
  }
  return parser.Finish();
}

}  // namespace distinct
