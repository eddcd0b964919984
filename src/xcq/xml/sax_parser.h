#ifndef XCQ_XML_SAX_PARSER_H_
#define XCQ_XML_SAX_PARSER_H_

/// \file sax_parser.h
/// A from-scratch streaming (SAX-style) XML parser.
///
/// This is the "very fast SAX(-like) parser" of Sec. 4 of the paper: it
/// drives both the tree-skeleton builder and the streaming compressor,
/// which build their structures in a single left-to-right pass.
///
/// Scope (the paper's simplified XML model):
///  * elements, character data, CDATA sections
///  * attributes are parsed and reported but carry no skeleton semantics
///  * comments, processing instructions, XML declaration, DOCTYPE
///    (including a bracketed internal subset) are skipped
///  * predefined entities and numeric character references are decoded
///  * well-formedness is enforced: matching end tags, a single root
///    element, no stray text outside the root, proper EOF
///
/// Errors are reported as `Status` values carrying 1-based line:column.

#include <string>
#include <string_view>
#include <vector>

#include "xcq/util/result.h"
#include "xcq/util/status.h"

namespace xcq::xml {

/// \brief One attribute of a start tag; `value` is entity-decoded.
struct Attribute {
  std::string_view name;
  std::string value;
};

/// \brief Event sink for `SaxParser::Parse`.
///
/// Character data may be delivered in multiple consecutive `OnCharacters`
/// calls (e.g. around entity references or CDATA boundaries); consumers
/// that need contiguous text must concatenate.
class SaxHandler {
 public:
  virtual ~SaxHandler() = default;

  virtual Status OnStartDocument() { return Status::OK(); }
  virtual Status OnEndDocument() { return Status::OK(); }
  virtual Status OnStartElement(std::string_view name,
                                const std::vector<Attribute>& attributes) = 0;
  virtual Status OnEndElement(std::string_view name) = 0;
  virtual Status OnCharacters(std::string_view text) = 0;
};

/// \brief Streaming XML parser over an in-memory document.
class SaxParser {
 public:
  struct Options {
    /// Deliver whitespace-only text between elements. The skeleton model
    /// ignores formatting whitespace, so the default is off.
    bool report_whitespace = false;
    /// Maximum element nesting depth (guards the event consumers' stacks).
    size_t max_depth = 100000;
  };

  SaxParser() = default;
  explicit SaxParser(Options options) : options_(options) {}

  /// Parses `xml` and invokes `handler` callbacks in document order.
  /// The string_views passed to the handler alias `xml` (names) or an
  /// internal scratch buffer valid only during the callback (text).
  Status Parse(std::string_view xml, SaxHandler* handler);

 private:
  Options options_;
};

/// \brief Reads a whole file into memory (helper for tools and tests).
Result<std::string> ReadFileToString(const std::string& path);

/// \brief Writes `content` to `path`, replacing any existing file.
Status WriteStringToFile(const std::string& path, std::string_view content);

}  // namespace xcq::xml

#endif  // XCQ_XML_SAX_PARSER_H_
