#include "test_util.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>

namespace xcq::testing {

DifferentialResult RunDifferential(const std::string& xml,
                                   const std::string& query_text) {
  DifferentialResult out;

  // Parse the query and compile the shared plan.
  auto query = xpath::ParseQuery(query_text);
  EXPECT_TRUE(query.ok()) << query.status() << " query: " << query_text;
  if (!query.ok()) return out;
  auto plan = algebra::Compile(*query);
  EXPECT_TRUE(plan.ok()) << plan.status();
  if (!plan.ok()) return out;
  const xpath::QueryRequirements reqs = CollectRequirements(*query);

  // (a) Compressed path: kSchema instance + DAG engine.
  CompressOptions copts;
  copts.mode = LabelMode::kSchema;
  copts.tags = reqs.tags;
  copts.patterns = reqs.patterns;
  auto instance = CompressXml(xml, copts);
  EXPECT_TRUE(instance.ok()) << instance.status();
  if (!instance.ok()) return out;

  engine::EvalOptions eopts;
  auto result_rel =
      engine::Evaluate(&*instance, *plan, eopts, &out.dag_stats);
  EXPECT_TRUE(result_rel.ok()) << result_rel.status();
  if (!result_rel.ok()) return out;

  out.selected_dag_nodes = SelectedDagNodeCount(*instance, *result_rel);
  out.selected_tree_nodes = SelectedTreeNodeCount(*instance, *result_rel);

  // (b) Baseline path: labeled tree + tree engine.
  auto labeled = TreeBuilder::Build(xml, reqs.patterns);
  EXPECT_TRUE(labeled.ok()) << labeled.status();
  if (!labeled.ok()) return out;
  auto baseline_set = baseline::Evaluate(*labeled, *plan);
  EXPECT_TRUE(baseline_set.ok()) << baseline_set.status();
  if (!baseline_set.ok()) return out;

  EXPECT_EQ(out.selected_tree_nodes, baseline_set->Count())
      << "selected-count mismatch for query " << query_text;

  // Full set comparison via decompression (both trees are in document
  // order, so node ids line up).
  DecompressOptions dopts;
  dopts.max_nodes = 4'000'000;
  auto decompressed = Decompress(*instance, dopts);
  EXPECT_TRUE(decompressed.ok()) << decompressed.status();
  if (!decompressed.ok()) return out;
  EXPECT_EQ(decompressed->tree.node_count(), labeled->tree.node_count())
      << "decompressed tree size mismatch";
  if (decompressed->tree.node_count() != labeled->tree.node_count()) {
    return out;
  }
  const DynamicBitset dag_set =
      decompressed->RelationSet(engine::kResultRelation);
  EXPECT_EQ(dag_set, *baseline_set)
      << "selected-set mismatch for query " << query_text;
  return out;
}

void ExpectSameChildLists(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  for (VertexId v = 0; v < a.vertex_count(); ++v) {
    const std::span<const Edge> ca = a.Children(v);
    const std::span<const Edge> cb = b.Children(v);
    ASSERT_TRUE(std::equal(ca.begin(), ca.end(), cb.begin(), cb.end()))
        << "child lists of vertex " << v << " differ";
  }
}

std::string BibExampleXml() {
  return R"(<bib>
<book>
<title>Foundations of Databases</title>
<author>Abiteboul</author>
<author>Hull</author>
<author>Vianu</author>
</book>
<paper>
<title>A Relational Model for Large Shared Data Banks</title>
<author>Codd</author>
</paper>
<paper>
<title>The Complexity of Relational Query Languages</title>
<author>Vardi</author>
</paper>
</bib>)";
}

std::string AlternatingBinaryTreeXml(int depth) {
  std::string out;
  std::function<void(int)> emit = [&](int level) {
    const char* tag = level % 2 == 1 ? "a" : "b";
    if (level == depth) {
      out += "<";
      out += tag;
      out += "/>";
      return;
    }
    out += "<";
    out += tag;
    out += ">";
    emit(level + 1);
    emit(level + 1);
    out += "</";
    out += tag;
    out += ">";
  };
  emit(1);
  return out;
}

std::string RandomXml(uint64_t seed, size_t max_nodes, int tag_count) {
  Rng rng(seed);
  std::string out;
  xml::XmlWriter writer(&out);
  size_t budget = max_nodes == 0 ? 1 : max_nodes;
  const auto tag = [&](int i) { return "t" + std::to_string(i); };

  std::function<void(int)> emit = [&](int depth) {
    if (budget == 0) return;
    --budget;
    (void)writer.StartElement(
        tag(static_cast<int>(rng.Uniform(0, tag_count - 1))));
    if (rng.Chance(0.3)) {
      (void)writer.Text(corpus::RandomSentence(
          rng, static_cast<size_t>(rng.Uniform(1, 4))));
    }
    if (depth < 12) {
      const uint64_t children = rng.GeometricCount(0, 4, 0.45);
      for (uint64_t c = 0; c < children && budget > 0; ++c) {
        emit(depth + 1);
      }
    }
    (void)writer.EndElement();
  };

  (void)writer.StartElement("doc");
  while (budget > 0) emit(1);
  (void)writer.EndElement();
  return out;
}

namespace {

const char* const kAxisNames[] = {
    "self",     "child",           "parent",
    "descendant", "descendant-or-self", "ancestor",
    "ancestor-or-self", "following-sibling", "preceding-sibling",
    "following", "preceding",
};

const char* const kPatternWords[] = {"the", "market", "growth", "zzz"};

void AppendRandomCondition(Rng& rng, int tag_count, int depth,
                           std::string* out);

void AppendRandomPath(Rng& rng, int tag_count, int depth, bool absolute,
                      std::string* out) {
  if (absolute) out->push_back('/');
  const uint64_t steps = rng.Uniform(1, 3);
  for (uint64_t s = 0; s < steps; ++s) {
    if (s != 0) out->push_back('/');
    if (rng.Chance(0.35)) {
      out->append(kAxisNames[rng.Uniform(0, 10)]);
      out->append("::");
    }
    if (rng.Chance(0.2)) {
      out->push_back('*');
    } else {
      out->append("t" + std::to_string(rng.Uniform(
                            0, static_cast<uint64_t>(tag_count) - 1)));
    }
    if (depth < 2 && rng.Chance(0.4)) {
      out->push_back('[');
      AppendRandomCondition(rng, tag_count, depth + 1, out);
      out->push_back(']');
    }
  }
}

void AppendRandomCondition(Rng& rng, int tag_count, int depth,
                           std::string* out) {
  const double roll = rng.UniformReal();
  if (depth < 3 && roll < 0.15) {
    out->push_back('(');
    AppendRandomCondition(rng, tag_count, depth + 1, out);
    out->append(rng.Chance(0.5) ? " and " : " or ");
    AppendRandomCondition(rng, tag_count, depth + 1, out);
    out->push_back(')');
  } else if (depth < 3 && roll < 0.3) {
    out->append("not(");
    AppendRandomCondition(rng, tag_count, depth + 1, out);
    out->push_back(')');
  } else if (roll < 0.5) {
    out->push_back('"');
    out->append(kPatternWords[rng.Uniform(0, 3)]);
    out->push_back('"');
  } else {
    AppendRandomPath(rng, tag_count, depth, rng.Chance(0.15), out);
  }
}

}  // namespace

std::string RandomQueryText(Rng& rng, int tag_count) {
  std::string out;
  const double roll = rng.UniformReal();
  if (roll < 0.4) {
    out.append("//");
    AppendRandomPath(rng, tag_count, 0, /*absolute=*/false, &out);
  } else {
    AppendRandomPath(rng, tag_count, 0, /*absolute=*/rng.Chance(0.6),
                     &out);
  }
  return out;
}

namespace {

/// Replies a handler's sink has delivered, by sequence number. Shared
/// with the sink: a worker may still be inside it when the conversation
/// returns.
struct ReplyLog {
  std::mutex mu;
  std::condition_variable cv;
  std::map<uint64_t, std::string> replies;
};

}  // namespace

std::vector<std::string> Converse(server::DocumentStore* store,
                                  server::QueryService* service,
                                  const std::vector<std::string>& input,
                                  server::HandlerOptions options) {
  using Feed = server::PipelinedHandler::FeedResult;
  auto log = std::make_shared<ReplyLog>();
  auto handler = std::make_shared<server::PipelinedHandler>(
      store, service,
      [log](uint64_t seq, std::string bytes, bool /*close_after*/) {
        std::lock_guard<std::mutex> lock(log->mu);
        log->replies.emplace(seq, std::move(bytes));
        log->cv.notify_all();
      },
      options);
  const auto await_all = [&] {
    std::unique_lock<std::mutex> lock(log->mu);
    log->cv.wait(lock,
                 [&] { return log->replies.size() >= handler->dispatched(); });
  };

  bool open = true;
  for (const std::string& line : input) {
    Feed result = handler->Feed(line);
    while (result == Feed::kStalled) {
      // The service queue is full: wait for a completion (polling, since
      // the work ahead may belong to other connections), then retry.
      {
        std::unique_lock<std::mutex> lock(log->mu);
        const size_t before = log->replies.size();
        log->cv.wait_for(lock, std::chrono::milliseconds(1),
                         [&] { return log->replies.size() > before; });
      }
      result = handler->ResumeDeferred();
    }
    if (result == Feed::kClose) {
      open = false;
      break;
    }
    await_all();
  }
  if (open) handler->OnInputClosed();
  await_all();

  std::vector<std::string> output;
  std::lock_guard<std::mutex> lock(log->mu);
  for (const auto& entry : log->replies) {
    const std::string& bytes = entry.second;
    size_t begin = 0;
    while (begin < bytes.size()) {
      const size_t end = bytes.find('\n', begin);
      output.push_back(bytes.substr(begin, end - begin));
      begin = end + 1;
    }
  }
  return output;
}

}  // namespace xcq::testing
