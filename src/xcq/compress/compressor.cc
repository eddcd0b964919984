#include "xcq/compress/compressor.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "xcq/compress/dag_builder.h"
#include "xcq/tree/tree_skeleton.h"
#include "xcq/util/timer.h"
#include "xcq/xml/sax_parser.h"
#include "xcq/xml/string_matcher.h"

namespace xcq {

namespace {

/// DagBuilder reservation heuristic: an element costs at least a few
/// dozen bytes of markup, and distinct DAG vertices never exceed
/// element count, so bytes/48 over-reserves mildly for dense documents
/// and generously for text-heavy ones. The builder spends 8 bytes per
/// hinted vertex on hash buckets (~17% of the input size, worst case,
/// once) and deliberately reserves only a fraction of the heavier
/// arenas — see the DagBuilder constructor.
size_t ReserveHintForBytes(size_t bytes) {
  const size_t hint = bytes / 48;
  return hint < 16 ? 0 : (hint > (size_t{1} << 24) ? size_t{1} << 24
                                                   : hint);
}

/// Tag-name → relation-id interning. Ids are assigned in resolution
/// order, i.e. document open-tag order.
class TagInterner {
 public:
  /// Pattern relations take ids [0, P); tag relations follow so that tag
  /// discovery during the scan can append names freely.
  explicit TagInterner(const CompressOptions& options)
      : mode_(options.mode) {
    for (const std::string& pattern : options.patterns) {
      relation_names_.push_back(Schema::StringRelationName(pattern));
    }
    if (mode_ == LabelMode::kSchema) {
      for (const std::string& tag : options.tags) {
        const RelationId id =
            static_cast<RelationId>(relation_names_.size());
        if (tag_ids_.emplace(tag, id).second) {
          relation_names_.push_back(tag);
        }
      }
    }
  }

  RelationId Resolve(std::string_view tag) {
    switch (mode_) {
      case LabelMode::kNone:
        return kNoRelation;
      case LabelMode::kAllTags: {
        auto it = tag_ids_.find(std::string(tag));
        if (it != tag_ids_.end()) return it->second;
        const RelationId id =
            static_cast<RelationId>(relation_names_.size());
        relation_names_.emplace_back(tag);
        tag_ids_.emplace(std::string(tag), id);
        return id;
      }
      case LabelMode::kSchema: {
        auto it = tag_ids_.find(std::string(tag));
        return it == tag_ids_.end() ? kNoRelation : it->second;
      }
    }
    return kNoRelation;
  }

  const std::vector<std::string>& names() const { return relation_names_; }

 private:
  LabelMode mode_;
  std::vector<std::string> relation_names_;
  std::unordered_map<std::string, RelationId> tag_ids_;
};

/// SAX handler implementing the paper's one-scan compression algorithm.
class CompressorHandler : public xml::SaxHandler {
 public:
  CompressorHandler(const CompressOptions& options,
                    xml::StringMatcher* matcher, CompressRunStats* stats,
                    size_t reserve_hint)
      : matcher_(matcher),
        stats_(stats),
        builder_(reserve_hint),
        tags_(options) {}

  Status OnStartDocument() override {
    PushFrame(kDocumentTag);
    return Status::OK();
  }

  Status OnStartElement(std::string_view name,
                        const std::vector<xml::Attribute>&) override {
    PushFrame(name);
    return Status::OK();
  }

  Status OnCharacters(std::string_view text) override {
    if (stats_ != nullptr) stats_->text_bytes += text.size();
    if (matcher_ == nullptr) return Status::OK();
    matcher_->Feed(text, [this](const xml::PatternMatch& m) {
      if (stats_ != nullptr) ++stats_->pattern_hits;
      for (size_t i = stack_.size(); i-- > 0;) {
        if (stack_[i].open_offset <= m.start_offset) {
          stack_[i].pattern_mask |= uint64_t{1} << m.pattern;
          break;
        }
      }
    });
    return Status::OK();
  }

  Status OnEndElement(std::string_view) override {
    PopAndIntern();
    return Status::OK();
  }

  Status OnEndDocument() override {
    root_ = PopAndIntern();
    if (!stack_.empty()) {
      return Status::Internal("compressor stack not empty at end");
    }
    return Status::OK();
  }

  Result<Instance> Finish() {
    if (root_ == kNoVertex) {
      return Status::Internal("compressor finished without a root");
    }
    return builder_.Finish(root_, tags_.names());
  }

 private:
  struct Frame {
    RelationId tag_label;   ///< kNoRelation if the tag is not tracked.
    uint64_t open_offset;   ///< Matcher offset when the element opened.
    uint64_t pattern_mask;  ///< Patterns contained in the string value.
    std::vector<Edge> edges;
  };

  void PushFrame(std::string_view tag) {
    if (stats_ != nullptr) ++stats_->tree_nodes;
    Frame frame;
    frame.tag_label = tags_.Resolve(tag);
    frame.open_offset = matcher_ ? matcher_->offset() : 0;
    frame.pattern_mask = 0;
    if (!spare_edge_lists_.empty()) {
      frame.edges = std::move(spare_edge_lists_.back());
      spare_edge_lists_.pop_back();
      frame.edges.clear();
    }
    stack_.push_back(std::move(frame));
  }

  VertexId PopAndIntern() {
    Frame& frame = stack_.back();
    // Assemble the sorted label list: patterns have ids below all tags in
    // kSchema mode, but in kAllTags mode tag ids interleave with nothing
    // (patterns absent) — in both cases a final sort keeps it canonical.
    labels_scratch_.clear();
    uint64_t mask = frame.pattern_mask;
    while (mask != 0) {
      const int p = __builtin_ctzll(mask);
      labels_scratch_.push_back(static_cast<RelationId>(p));
      mask &= mask - 1;
    }
    if (frame.tag_label != kNoRelation) {
      labels_scratch_.push_back(frame.tag_label);
    }
    std::sort(labels_scratch_.begin(), labels_scratch_.end());
    const VertexId id = builder_.Intern(labels_scratch_, frame.edges);

    const uint64_t child_mask = frame.pattern_mask;
    spare_edge_lists_.push_back(std::move(frame.edges));
    stack_.pop_back();
    if (!stack_.empty()) {
      AppendEdgeRle(&stack_.back().edges, Edge{id, 1});
      // Ancestors' string values contain this element's string value.
      stack_.back().pattern_mask |= child_mask;
    }
    return id;
  }

  xml::StringMatcher* matcher_;
  CompressRunStats* stats_;

  DagBuilder builder_;
  TagInterner tags_;
  std::vector<Frame> stack_;
  std::vector<std::vector<Edge>> spare_edge_lists_;
  std::vector<RelationId> labels_scratch_;
  VertexId root_ = kNoVertex;
};

}  // namespace

Result<Instance> CompressXmlWithStats(std::string_view xml,
                                      const CompressOptions& options,
                                      CompressRunStats* stats) {
  if (options.patterns.size() > 64) {
    return Status::InvalidArgument(
        "at most 64 string patterns are supported per compression pass");
  }
  if (options.mode != LabelMode::kSchema && !options.tags.empty()) {
    return Status::InvalidArgument(
        "CompressOptions::tags is only meaningful in kSchema mode");
  }
  Timer timer;
  const size_t reserve_hint = ReserveHintForBytes(xml.size());
  std::optional<xml::StringMatcher> matcher;
  if (!options.patterns.empty()) {
    XCQ_ASSIGN_OR_RETURN(matcher,
                         xml::StringMatcher::Build(options.patterns));
  }
  if (stats != nullptr) stats->dag_reserve = reserve_hint;
  CompressorHandler handler(options, matcher ? &*matcher : nullptr, stats,
                            reserve_hint);
  xml::SaxParser parser;
  XCQ_RETURN_IF_ERROR(parser.Parse(xml, &handler));
  XCQ_ASSIGN_OR_RETURN(Instance instance, handler.Finish());
  if (stats != nullptr) stats->parse_seconds = timer.Seconds();
  return instance;
}

Result<Instance> CompressXml(std::string_view xml,
                             const CompressOptions& options) {
  return CompressXmlWithStats(xml, options, nullptr);
}

}  // namespace xcq
