#include "xcq/xml/sax_parser.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "xcq/util/string_util.h"
#include "xcq/xml/entities.h"

namespace xcq::xml {

namespace {

bool IsNameStartChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':' || static_cast<unsigned char>(c) >= 0x80;
}

bool IsNameChar(char c) {
  return IsNameStartChar(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

/// Cursor over the document with error-reporting helpers.
class Cursor {
 public:
  Cursor(std::string_view xml) : xml_(xml) {}

  bool AtEnd() const { return pos_ >= xml_.size(); }
  size_t pos() const { return pos_; }
  char Peek() const { return xml_[pos_]; }
  char PeekAt(size_t ahead) const {
    return pos_ + ahead < xml_.size() ? xml_[pos_ + ahead] : '\0';
  }
  void Advance(size_t n = 1) { pos_ += n; }

  bool Consume(std::string_view token) {
    if (xml_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  void SkipWhitespace() {
    while (!AtEnd() && IsSpace(xml_[pos_])) ++pos_;
  }

  /// Advances past `token`; error if not found before EOF.
  Status SkipPast(std::string_view token, const char* what) {
    const size_t found = xml_.find(token, pos_);
    if (found == std::string_view::npos) {
      return Error(StrFormat("unterminated %s", what));
    }
    pos_ = found + token.size();
    return Status::OK();
  }

  std::string_view Slice(size_t begin, size_t end) const {
    return xml_.substr(begin, end - begin);
  }

  std::string_view ParseName() {
    const size_t begin = pos_;
    if (!AtEnd() && IsNameStartChar(xml_[pos_])) {
      ++pos_;
      while (!AtEnd() && IsNameChar(xml_[pos_])) ++pos_;
    }
    return xml_.substr(begin, pos_ - begin);
  }

  /// Builds a ParseError with 1-based line:column for the current offset.
  Status Error(std::string msg) const { return ErrorAt(pos_, std::move(msg)); }

  Status ErrorAt(size_t offset, std::string msg) const {
    size_t line = 1;
    size_t col = 1;
    const size_t end = offset < xml_.size() ? offset : xml_.size();
    for (size_t i = 0; i < end; ++i) {
      if (xml_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return Status::ParseError(StrFormat("%zu:%zu: %s", line, col,
                                        msg.c_str()));
  }

 private:
  std::string_view xml_;
  size_t pos_ = 0;
};

class ParserImpl {
 public:
  ParserImpl(std::string_view xml, const SaxParser::Options& options,
             SaxHandler* handler)
      : cursor_(xml), options_(options), handler_(handler) {}

  Status Run() {
    cursor_.Consume("\xEF\xBB\xBF");  // UTF-8 BOM
    XCQ_RETURN_IF_ERROR(handler_->OnStartDocument());
    while (!cursor_.AtEnd()) {
      if (cursor_.Peek() == '<') {
        XCQ_RETURN_IF_ERROR(ParseMarkup());
      } else {
        XCQ_RETURN_IF_ERROR(ParseText());
      }
    }
    if (!open_tags_.empty()) {
      return cursor_.Error(StrFormat(
          "unexpected end of document: %zu element(s) still open, "
          "innermost is <%.*s>",
          open_tags_.size(), static_cast<int>(open_tags_.back().size()),
          open_tags_.back().data()));
    }
    if (!seen_root_) {
      return cursor_.Error("document has no root element");
    }
    return handler_->OnEndDocument();
  }

 private:
  Status ParseMarkup() {
    if (cursor_.Consume("<?")) return SkipProcessingInstruction();
    if (cursor_.Consume("<!--")) {
      return cursor_.SkipPast("-->", "comment");
    }
    if (cursor_.Consume("<![CDATA[")) return ParseCdata();
    if (cursor_.PeekAt(1) == '!') {
      cursor_.Advance(2);
      return SkipDoctype();
    }
    if (cursor_.PeekAt(1) == '/') {
      cursor_.Advance(2);
      return ParseEndTag();
    }
    cursor_.Advance(1);
    return ParseStartTag();
  }

  Status SkipProcessingInstruction() {
    return cursor_.SkipPast("?>", "processing instruction");
  }

  Status SkipDoctype() {
    // Already past "<!". Skip to '>' at bracket depth zero; the internal
    // subset "[ ... ]" may itself contain markup declarations with '>'.
    int bracket_depth = 0;
    while (!cursor_.AtEnd()) {
      const char c = cursor_.Peek();
      cursor_.Advance();
      if (c == '[') {
        ++bracket_depth;
      } else if (c == ']') {
        --bracket_depth;
      } else if (c == '>' && bracket_depth <= 0) {
        return Status::OK();
      }
    }
    return cursor_.Error("unterminated DOCTYPE declaration");
  }

  Status ParseCdata() {
    const size_t begin_offset = cursor_.pos();
    if (open_tags_.empty()) {
      return cursor_.Error("CDATA section outside of root element");
    }
    const size_t begin = cursor_.pos();
    XCQ_RETURN_IF_ERROR(cursor_.SkipPast("]]>", "CDATA section"));
    const std::string_view text = cursor_.Slice(begin, cursor_.pos() - 3);
    if (text.empty()) return Status::OK();
    (void)begin_offset;
    return handler_->OnCharacters(text);
  }

  Status ParseStartTag() {
    const size_t name_offset = cursor_.pos();
    const std::string_view name = cursor_.ParseName();
    if (name.empty()) {
      return cursor_.ErrorAt(name_offset, "expected element name after '<'");
    }
    if (open_tags_.empty() && seen_root_) {
      return cursor_.ErrorAt(name_offset,
                             "document has more than one root element");
    }
    XCQ_RETURN_IF_ERROR(ParseAttributes());
    const bool self_closing = cursor_.Consume("/");
    if (!cursor_.Consume(">")) {
      return cursor_.Error(StrFormat("expected '>' to close tag <%.*s>",
                                     static_cast<int>(name.size()),
                                     name.data()));
    }
    if (open_tags_.size() >= options_.max_depth) {
      return cursor_.ErrorAt(
          name_offset,
          StrFormat("element nesting exceeds max depth %zu",
                    options_.max_depth));
    }
    seen_root_ = true;
    XCQ_RETURN_IF_ERROR(handler_->OnStartElement(name, attributes_));
    if (self_closing) {
      return handler_->OnEndElement(name);
    }
    open_tags_.push_back(name);
    return Status::OK();
  }

  Status ParseAttributes() {
    attributes_.clear();
    while (true) {
      cursor_.SkipWhitespace();
      if (cursor_.AtEnd()) return cursor_.Error("unterminated start tag");
      const char c = cursor_.Peek();
      if (c == '>' || c == '/') return Status::OK();
      const size_t name_offset = cursor_.pos();
      const std::string_view attr_name = cursor_.ParseName();
      if (attr_name.empty()) {
        return cursor_.ErrorAt(name_offset, "expected attribute name");
      }
      cursor_.SkipWhitespace();
      if (!cursor_.Consume("=")) {
        return cursor_.Error("expected '=' after attribute name");
      }
      cursor_.SkipWhitespace();
      if (cursor_.AtEnd() ||
          (cursor_.Peek() != '"' && cursor_.Peek() != '\'')) {
        return cursor_.Error("expected quoted attribute value");
      }
      const char quote = cursor_.Peek();
      cursor_.Advance();
      const size_t value_begin = cursor_.pos();
      while (!cursor_.AtEnd() && cursor_.Peek() != quote) {
        if (cursor_.Peek() == '<') {
          return cursor_.Error("'<' not allowed in attribute value");
        }
        cursor_.Advance();
      }
      if (cursor_.AtEnd()) {
        return cursor_.ErrorAt(value_begin, "unterminated attribute value");
      }
      const std::string_view raw = cursor_.Slice(value_begin, cursor_.pos());
      cursor_.Advance();  // closing quote
      Attribute attr;
      attr.name = attr_name;
      Status decoded = DecodeText(raw, &attr.value);
      if (!decoded.ok()) {
        return cursor_.ErrorAt(value_begin, decoded.message());
      }
      attributes_.push_back(std::move(attr));
    }
  }

  Status ParseEndTag() {
    const size_t name_offset = cursor_.pos();
    const std::string_view name = cursor_.ParseName();
    cursor_.SkipWhitespace();
    if (!cursor_.Consume(">")) {
      return cursor_.Error("expected '>' in end tag");
    }
    if (open_tags_.empty()) {
      return cursor_.ErrorAt(
          name_offset,
          StrFormat("end tag </%.*s> with no element open",
                    static_cast<int>(name.size()), name.data()));
    }
    if (open_tags_.back() != name) {
      return cursor_.ErrorAt(
          name_offset,
          StrFormat("end tag </%.*s> does not match open element <%.*s>",
                    static_cast<int>(name.size()), name.data(),
                    static_cast<int>(open_tags_.back().size()),
                    open_tags_.back().data()));
    }
    open_tags_.pop_back();
    return handler_->OnEndElement(name);
  }

  Status ParseText() {
    const size_t begin = cursor_.pos();
    while (!cursor_.AtEnd() && cursor_.Peek() != '<') cursor_.Advance();
    const std::string_view raw = cursor_.Slice(begin, cursor_.pos());
    const bool whitespace_only = Trim(raw).empty();
    if (open_tags_.empty()) {
      if (!whitespace_only) {
        return cursor_.ErrorAt(begin, "character data outside root element");
      }
      return Status::OK();
    }
    if (whitespace_only && !options_.report_whitespace) return Status::OK();
    if (raw.find('&') == std::string_view::npos) {
      return handler_->OnCharacters(raw);
    }
    scratch_.clear();
    Status decoded = DecodeText(raw, &scratch_);
    if (!decoded.ok()) {
      return cursor_.ErrorAt(begin, decoded.message());
    }
    return handler_->OnCharacters(scratch_);
  }

  Cursor cursor_;
  SaxParser::Options options_;
  SaxHandler* handler_;
  std::vector<std::string_view> open_tags_;
  std::vector<Attribute> attributes_;
  std::string scratch_;
  bool seen_root_ = false;
};

}  // namespace

Status SaxParser::Parse(std::string_view xml, SaxHandler* handler) {
  if (handler == nullptr) {
    return Status::InvalidArgument("SaxParser::Parse: handler is null");
  }
  ParserImpl impl(xml, options_, handler);
  return impl.Run();
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError(StrFormat("cannot open '%s'", path.c_str()));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IoError(StrFormat("error reading '%s'", path.c_str()));
  }
  return std::move(buffer).str();
}

Status WriteStringToFile(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError(StrFormat("cannot create '%s'", path.c_str()));
  }
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) {
    return Status::IoError(StrFormat("error writing '%s'", path.c_str()));
  }
  return Status::OK();
}

}  // namespace xcq::xml
