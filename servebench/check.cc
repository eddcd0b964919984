// Correctness and structure of a bench_serve run: the tree oracle, reply
// checking, set-up and warm-up over any Caller, and the store deltas the
// structural gates read.

#include <algorithm>
#include <cstdlib>
#include <set>

#include "serve_bench.h"
#include "xcq/algebra/compiler.h"
#include "xcq/baseline/tree_evaluator.h"
#include "xcq/tree/tree_builder.h"
#include "xcq/util/string_util.h"
#include "xcq/xpath/parser.h"

namespace xcq::servebench {
namespace {

/// TreeBuilder labels at most this many string patterns per tree.
constexpr size_t kPatternsPerTree = 64;

/// `tree=` and `splits=` of one answer line (QUERY reply or BATCH row).
bool ParseAnswer(std::string_view line, uint64_t* tree, uint64_t* splits) {
  const size_t t = line.find(" tree=");
  const size_t s = line.find(" splits=");
  if (t == std::string_view::npos || s == std::string_view::npos) {
    return false;
  }
  *tree = std::strtoull(line.data() + t + 6, nullptr, 10);
  *splits = std::strtoull(line.data() + s + 8, nullptr, 10);
  return true;
}

uint64_t Minus(uint64_t after, uint64_t before) {
  return after > before ? after - before : 0;
}

Status Expect(const Result<std::vector<std::string>>& reply,
              std::string_view prefix, const std::string& request) {
  if (!reply.ok()) return reply.status();
  if (reply->empty() || !StartsWith(reply->front(), prefix)) {
    return Status::Internal(
        StrFormat("%s answered '%s'", request.c_str(),
                  reply->empty() ? "" : reply->front().c_str()));
  }
  return Status::OK();
}

/// One QUERY round trip during warm-up; adds its splits.
Status WarmQuery(Caller* caller, const std::string& doc,
                 const std::string& query, uint64_t* splits) {
  const std::string request = "QUERY " + doc + " " + query;
  const Result<std::vector<std::string>> reply =
      caller->Call(request + "\n", false);
  XCQ_RETURN_IF_ERROR(Expect(reply, "OK ", request));
  uint64_t tree = 0;
  uint64_t split = 0;
  if (!ParseAnswer(reply->front(), &tree, &split)) {
    return Status::Internal(request + " answered without counts");
  }
  *splits += split;
  return Status::OK();
}

}  // namespace

Result<std::vector<uint64_t>> OracleCounts(
    std::string_view xml, const std::vector<std::string>& queries) {
  struct Prepared {
    algebra::QueryPlan plan;
    std::vector<std::string> patterns;
  };
  std::vector<Prepared> prepared;
  for (const std::string& text : queries) {
    XCQ_ASSIGN_OR_RETURN(const xpath::Query query, xpath::ParseQuery(text));
    XCQ_ASSIGN_OR_RETURN(algebra::QueryPlan plan, algebra::Compile(query));
    prepared.push_back(
        {std::move(plan), xpath::CollectRequirements(query).patterns});
  }
  std::vector<uint64_t> counts(queries.size(), 0);
  size_t begin = 0;
  while (begin < prepared.size()) {
    // Take queries while their patterns fit one labeled tree.
    std::set<std::string> patterns;
    size_t end = begin;
    for (; end < prepared.size(); ++end) {
      std::set<std::string> grown = patterns;
      grown.insert(prepared[end].patterns.begin(),
                   prepared[end].patterns.end());
      if (grown.size() > kPatternsPerTree && end > begin) break;
      patterns = std::move(grown);
    }
    XCQ_ASSIGN_OR_RETURN(
        const LabeledTree tree,
        TreeBuilder::Build(xml, {patterns.begin(), patterns.end()}));
    for (size_t i = begin; i < end; ++i) {
      XCQ_ASSIGN_OR_RETURN(const DynamicBitset selected,
                           baseline::Evaluate(tree, prepared[i].plan));
      counts[i] = selected.Count();
    }
    begin = end;
  }
  return counts;
}

void Recorder::Fail(const std::string& what, uint64_t requests) {
  failed += requests;
  if (first_error.empty()) first_error = what;
}

void Recorder::Complete(const Request& request,
                        const std::vector<std::string>& lines,
                        Clock::time_point sent, Clock::time_point reply_at,
                        bool reply_in_window) {
  const std::string head = lines.empty() ? std::string() : lines.front();
  const std::string& doc = workload_.docs[request.doc].name;
  std::vector<std::pair<uint64_t, uint64_t>> rows;  // (tree, splits)
  bool ok = false;
  switch (request.kind) {
    case Request::Kind::kEvict:
      ok = lines.size() == 1 && StartsWith(head, "OK evicted " + doc);
      break;
    case Request::Kind::kQuery: {
      uint64_t tree = 0;
      uint64_t split = 0;
      ok = lines.size() == 1 && StartsWith(head, "OK ") &&
           ParseAnswer(head, &tree, &split);
      rows.emplace_back(tree, split);
      break;
    }
    case Request::Kind::kBatch: {
      const size_t n = request.queries.size();
      ok = lines.size() == n + 1 && head == StrFormat("OK %zu", n);
      for (size_t i = 1; ok && i < lines.size(); ++i) {
        uint64_t tree = 0;
        uint64_t split = 0;
        ok = StartsWith(lines[i], StrFormat("%zu ", i - 1)) &&
             ParseAnswer(lines[i], &tree, &split);
        rows.emplace_back(tree, split);
      }
      if (ok) ++batches;
      break;
    }
  }
  if (!ok) {
    const char* verb = request.kind == Request::Kind::kEvict   ? "EVICT"
                       : request.kind == Request::Kind::kBatch ? "BATCH"
                                                               : "QUERY";
    Fail(StrFormat("%s %s -> '%s'", verb, doc.c_str(), head.c_str()));
    return;
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto key = std::make_pair(request.doc, request.queries[i]);
    Answer& answer = answers_[key];
    if (answer.replies++ == 0) {
      answer.tree = rows[i].first;
    } else if (answer.tree != rows[i].first) {
      --answer.replies;
      Fail(StrFormat("%s %s answered %llu, earlier %llu", doc.c_str(),
                     table_.Text(request.queries[i]).c_str(),
                     static_cast<unsigned long long>(rows[i].first),
                     static_cast<unsigned long long>(answer.tree)));
    }
    splits += rows[i].second;
  }
  if (!request.measured) return;
  if (request.kind == Request::Kind::kQuery) ++measured_queries;
  latencies_ms.push_back(SecondsBetween(sent, reply_at) * 1e3);
  if (reply_in_window) {
    ++in_window;
    last_in_window = std::max(last_in_window, reply_at);
  }
}

double Recorder::Throughput() const {
  const double seconds = SecondsBetween(window_start, last_in_window);
  return in_window == 0 || seconds <= 0.0
             ? 0.0
             : static_cast<double>(in_window) / seconds;
}

Status Recorder::CheckAnswers(
    const std::map<std::string, Corpus>& corpora) {
  // Documents generated from one corpus (b0..b3) hold the same XML; ask
  // the oracle once per corpus. `xml` points into `corpora`.
  std::map<std::string, std::pair<std::string_view, std::vector<std::string>>>
      by_corpus;
  std::map<std::pair<std::string, std::string>, uint64_t> expected;
  for (const auto& [key, answer] : answers_) {
    const DocSpec& doc = workload_.docs[key.first];
    const std::string& text = table_.Text(key.second);
    if (expected.emplace(std::make_pair(doc.corpus, text), 0).second) {
      auto& [xml, texts] = by_corpus[doc.corpus];
      xml = corpora.at(doc.name).xml;
      texts.push_back(text);
    }
  }
  for (const auto& [corpus, work] : by_corpus) {
    XCQ_ASSIGN_OR_RETURN(const std::vector<uint64_t> counts,
                         OracleCounts(work.first, work.second));
    for (size_t i = 0; i < counts.size(); ++i) {
      expected[{corpus, work.second[i]}] = counts[i];
    }
  }
  for (const auto& [key, answer] : answers_) {
    const DocSpec& doc = workload_.docs[key.first];
    const std::string& text = table_.Text(key.second);
    const uint64_t want = expected.at({doc.corpus, text});
    if (answer.tree != want) {
      Fail(StrFormat("oracle mismatch: %s %s answered %llu, tree evaluator "
                     "%llu",
                     doc.name.c_str(), text.c_str(),
                     static_cast<unsigned long long>(answer.tree),
                     static_cast<unsigned long long>(want)),
           answer.replies);
    }
  }
  return Status::OK();
}

void AddOracleStructure(const Workload& workload,
                        const std::map<std::string, Corpus>& corpora,
                        RunResult* result) {
  uint64_t total = 0;
  for (const DocSpec& doc : workload.docs) {
    const Result<std::vector<uint64_t>> counts =
        OracleCounts(corpora.at(doc.name).xml, doc.queries);
    if (!counts.ok()) {
      result->Problem("oracle: " + counts.status().ToString());
      return;
    }
    for (const uint64_t count : *counts) total += count;
  }
  result->structure.emplace_back("oracle_answer_total", total);
}

void FinishRecorder(Recorder* recorder,
                    const std::map<std::string, Corpus>& corpora,
                    RunResult* result) {
  const Status checked = recorder->CheckAnswers(corpora);
  if (!checked.ok()) result->Problem("oracle: " + checked.ToString());
  result->attempted = recorder->attempted;
  result->failed = recorder->failed;
  if (recorder->failed != 0) {
    result->Problem(StrFormat("%llu failed request(s), first: %s",
                              static_cast<unsigned long long>(
                                  recorder->failed),
                              recorder->first_error.c_str()));
  }
}

void RunResult::Add(std::string name, double value, std::string unit,
                    uint64_t samples) {
  metrics.push_back({std::move(name), value, std::move(unit), samples});
}

void RunResult::Note(std::string name, double value, std::string unit,
                     uint64_t samples) {
  diagnostics.push_back({std::move(name), value, std::move(unit), samples});
}

void RunResult::Problem(std::string what) {
  correct = false;
  problems.push_back(std::move(what));
}

Status LoadAndWarm(Caller* caller, const Workload& workload,
                   const std::map<std::string, Corpus>& corpora,
                   std::vector<double>* load_seconds) {
  uint64_t ignored = 0;
  for (const DocSpec& doc : workload.docs) {
    const Clock::time_point start = Clock::now();
    const std::string load =
        "LOAD " + doc.name + " " + corpora.at(doc.name).path;
    XCQ_RETURN_IF_ERROR(
        Expect(caller->Call(load + "\n", false), "OK loaded", load));
    XCQ_RETURN_IF_ERROR(
        WarmQuery(caller, doc.name, doc.queries.front(), &ignored));
    if (load_seconds != nullptr) {
      load_seconds->push_back(SecondsBetween(start, Clock::now()));
    }
  }
  // Drive every document to its split fixpoint — the pass after which
  // the same queries never split again — as bench_hotpath does.
  bool stable = false;
  for (int round = 0; round < 8 && !stable; ++round) {
    uint64_t splits = 0;
    for (const DocSpec& doc : workload.docs) {
      for (const std::string& query : doc.queries) {
        XCQ_RETURN_IF_ERROR(WarmQuery(caller, doc.name, query, &splits));
      }
    }
    stable = splits == 0;
  }
  if (!stable) {
    return Status::Internal(workload.name +
                            ": warm-up did not reach a split fixpoint");
  }
  // One settle pass in the traffic's own shape, so scratch pools and
  // caches hold what the window will ask of them.
  for (const DocSpec& doc : workload.docs) {
    if (workload.traffic == Traffic::kBatch) {
      std::string batch = StrFormat("BATCH %s %zu\n", doc.name.c_str(),
                                    doc.queries.size());
      for (const std::string& query : doc.queries) batch += query + "\n";
      XCQ_RETURN_IF_ERROR(
          Expect(caller->Call(batch, true), "OK ", "BATCH " + doc.name));
    } else if (workload.traffic == Traffic::kFaultIn) {
      XCQ_RETURN_IF_ERROR(Expect(caller->Call("EVICT " + doc.name + "\n",
                                              false),
                                 "OK evicted", "EVICT " + doc.name));
      XCQ_RETURN_IF_ERROR(
          WarmQuery(caller, doc.name, doc.queries.front(), &ignored));
    } else {
      for (const std::string& query : doc.queries) {
        XCQ_RETURN_IF_ERROR(WarmQuery(caller, doc.name, query, &ignored));
      }
    }
  }
  return Status::OK();
}

StoreSnapshot StoreSnapshot::Of(server::DocumentStore& store) {
  StoreSnapshot snapshot;
  for (server::DocumentInfo& info : store.Stats()) {
    std::string name = info.name;
    snapshot.docs.emplace(std::move(name), std::move(info));
  }
  snapshot.spill_reads = store.spill_reads();
  return snapshot;
}

uint64_t StoreSnapshot::bytes() const {
  uint64_t total = 0;
  for (const auto& [name, info] : docs) total += info.memory_bytes;
  return total;
}

uint64_t StoreSnapshot::vertices() const {
  uint64_t total = 0;
  for (const auto& [name, info] : docs) total += info.vertex_count;
  return total;
}

StoreDelta StoreDelta::Between(const StoreSnapshot& before,
                               const StoreSnapshot& after) {
  StoreDelta delta;
  const server::DocumentInfo fresh;
  for (const auto& [name, now] : after.docs) {
    const auto it = before.docs.find(name);
    // Fewer queries served than before means the document was faulted
    // in again: its counters restarted from zero.
    const server::DocumentInfo& base =
        it != before.docs.end() &&
                now.queries_served >= it->second.queries_served
            ? it->second
            : fresh;
    delta.traversal_builds +=
        Minus(now.traversal_builds, base.traversal_builds);
    delta.summary_builds += Minus(now.summary_builds, base.summary_builds);
    delta.scratch_allocs += Minus(now.scratch_allocs, base.scratch_allocs);
    delta.batches += Minus(now.batches_served, base.batches_served);
    delta.shared += Minus(now.batches_shared, base.batches_shared);
  }
  delta.spill_reads = Minus(after.spill_reads, before.spill_reads);
  return delta;
}

void CheckStructure(const Workload& workload, const Recorder& recorder,
                    const StoreDelta& delta, RunResult* result) {
  const auto gate = [&](const char* what, uint64_t got, uint64_t want) {
    result->structure.emplace_back(
        what, got > want ? got - want : want - got);
    if (got != want) {
      result->Problem(StrFormat("%s: %s = %llu, want %llu",
                                workload.name.c_str(), what,
                                static_cast<unsigned long long>(got),
                                static_cast<unsigned long long>(want)));
    }
  };
  if (workload.hot) {
    gate("hot_splits", recorder.splits, 0);
    gate("hot_traversal_builds", delta.traversal_builds, 0);
    gate("hot_summary_builds", delta.summary_builds, 0);
  }
  switch (workload.traffic) {
    case Traffic::kBatch:
      gate("unshared_batches", recorder.batches, delta.shared);
      break;
    case Traffic::kFaultIn:
      gate("spill_read_gap", recorder.measured_queries, delta.spill_reads);
      break;
    case Traffic::kQueries:
      break;
  }
}

}  // namespace xcq::servebench
