// The workload table, the generated inputs and the seeded request
// streams of bench_serve. Why each workload exists is in SERVE.md.

#include <algorithm>
#include <cmath>
#include <chrono>
#include <filesystem>
#include <fstream>

#include "serve_bench.h"
#include "xcq/compress/compressor.h"
#include "xcq/corpus/queries.h"
#include "xcq/corpus/registry.h"
#include "xcq/instance/instance_io.h"
#include "xcq/session/query_session.h"
#include "xcq/util/string_util.h"

namespace xcq::servebench {
namespace {

/// Generator seed of every corpus (see PrepareCorpora).
constexpr uint64_t kCorpusSeed = 42;

/// Appendix-A queries of `corpus`, by 1-based number.
std::vector<std::string> AppendixA(std::string_view corpus,
                                   std::initializer_list<size_t> numbers) {
  const Result<corpus::QuerySet> set = corpus::QueriesFor(corpus);
  std::vector<std::string> queries;
  for (const size_t n : numbers) queries.emplace_back(set->queries[n - 1]);
  return queries;
}

std::vector<std::string> With(std::vector<std::string> queries,
                              std::initializer_list<const char*> more) {
  queries.insert(queries.end(), more.begin(), more.end());
  return queries;
}

/// TreeBank, the corpus whose queries take milliseconds, is generated at
/// half its default size: its warm-up dominates set-up, which every run
/// repeats at least three times.
constexpr double kTreeBankScale = 0.5;

std::vector<Workload> BuildWorkloads() {
  std::vector<Workload> all;

  // Five (document, query) pairs, each a fifth of the requests, covering
  // all three axis families: about 1.7, 4, 6, 16 and 37 ms on the
  // reference host. Throughput is mostly TreeBank's; the geometric mean
  // of latency weighs the five alike.
  Workload navigate;
  navigate.name = "navigate_mixed";
  navigate.traffic = Traffic::kQueries;
  navigate.docs = {
      {"sp", "SwissProt", false, 1.0, AppendixA("SwissProt", {2, 3, 5})},
      {"tb", "TreeBank", false, kTreeBankScale, AppendixA("TreeBank", {1, 5})}};
  navigate.hot = true;
  all.push_back(navigate);

  // bench_hotpath's serving mix, one BATCH per document visit.
  const auto serving_mix = [](std::string_view corpus) {
    return With(AppendixA(corpus, {1, 2, 5}), {"/*", "//*"});
  };
  Workload batch;
  batch.name = "batch_shared";
  batch.traffic = Traffic::kBatch;
  batch.docs = {
      {"shk", "Shakespeare", false, 1.0, serving_mix("Shakespeare")},
      {"sp", "SwissProt", false, 1.0, serving_mix("SwissProt")},
      {"tb", "TreeBank", false, kTreeBankScale, serving_mix("TreeBank")}};
  batch.hot = true;
  all.push_back(batch);

  Workload fault;
  fault.name = "fault_in";
  fault.traffic = Traffic::kFaultIn;
  fault.docs = {{"sp", "SwissProt", true, 1.0, AppendixA("SwissProt", {2})}};
  fault.durable = true;
  all.push_back(fault);

  return all;
}

Status WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) return Status::IoError("cannot write " + path);
  return Status::OK();
}

uint64_t Salted(uint64_t seed, uint64_t salt) {
  return seed * 0x9E3779B97F4A7C15ULL + salt;
}

/// What RequestStream's picker draws from: every (document, query) pair
/// for QUERY traffic, the documents for BATCH traffic.
size_t Picks(const Workload& workload) {
  if (workload.traffic == Traffic::kBatch) return workload.docs.size();
  size_t pairs = 0;
  for (const DocSpec& doc : workload.docs) pairs += doc.queries.size();
  return pairs;
}

}  // namespace

double Percentile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const double pos = q * static_cast<double>(samples->size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*samples)[lo] + ((*samples)[hi] - (*samples)[lo]) * frac;
}

double GeometricMean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double logs = 0.0;
  for (const double x : samples) logs += std::log(std::max(x, 1e-9));
  return std::exp(logs / static_cast<double>(samples.size()));
}

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kWorkloads = BuildWorkloads();
  return kWorkloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& workload : AllWorkloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

server::ServerOptions DaemonOptions(const std::string& data_dir) {
  // Everything else stays at the daemon's defaults, which are the
  // ServerOptions defaults (examples/xcq_serverd.cpp starts from them).
  server::ServerOptions options;
  options.port = 0;
  options.data_dir = data_dir;
  return options;
}

Result<std::map<std::string, Corpus>> PrepareCorpora(
    const Workload& workload, const std::string& dir) {
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error) return Status::IoError("cannot create " + dir);
  std::map<std::string, std::string> generated;  // corpus -> xml
  std::map<std::string, Corpus> corpora;
  for (const DocSpec& doc : workload.docs) {
    auto it = generated.find(doc.corpus);
    if (it == generated.end()) {
      XCQ_ASSIGN_OR_RETURN(const corpus::CorpusGenerator* generator,
                           corpus::FindCorpus(doc.corpus));
      corpus::GenerateOptions options;
      options.target_nodes = static_cast<uint64_t>(
          static_cast<double>(generator->default_target_nodes()) * doc.scale);
      options.seed = kCorpusSeed;
      it = generated.emplace(doc.corpus, generator->Generate(options)).first;
    }
    Corpus corpus;
    corpus.xml = it->second;
    corpus.path = dir + "/" + doc.name + (doc.xcqi ? ".xcqi" : ".xml");
    if (doc.xcqi) {
      XCQ_ASSIGN_OR_RETURN(const xpath::QueryRequirements reqs,
                           CollectBatchRequirements(doc.queries));
      CompressOptions options;
      options.mode = LabelMode::kSchema;
      options.tags = reqs.tags;
      options.patterns = reqs.patterns;
      XCQ_ASSIGN_OR_RETURN(const Instance instance,
                           CompressXml(corpus.xml, options));
      XCQ_RETURN_IF_ERROR(SaveInstance(instance, corpus.path));
    } else {
      XCQ_RETURN_IF_ERROR(WriteFile(corpus.path, corpus.xml));
    }
    corpora.emplace(doc.name, std::move(corpus));
  }
  return corpora;
}

uint32_t QueryTable::Intern(const std::string& text) {
  const auto [it, inserted] =
      ids_.emplace(text, static_cast<uint32_t>(texts_.size()));
  if (inserted) texts_.push_back(text);
  return it->second;
}

std::string WireBytes(const Workload& workload, const QueryTable& table,
                      const Request& request) {
  const std::string& name = workload.docs[request.doc].name;
  switch (request.kind) {
    case Request::Kind::kEvict:
      return "EVICT " + name + "\n";
    case Request::Kind::kQuery:
      return "QUERY " + name + " " + table.Text(request.queries.front()) +
             "\n";
    case Request::Kind::kBatch: {
      std::string bytes = StrFormat("BATCH %s %zu\n", name.c_str(),
                                    request.queries.size());
      for (const uint32_t id : request.queries) {
        bytes += table.Text(id);
        bytes += '\n';
      }
      return bytes;
    }
  }
  return {};
}

size_t RequestStream::Balanced::Next() {
  if (pos_ == order_.size()) {
    order_.resize(size_);
    for (size_t i = 0; i < size_; ++i) order_[i] = i;
    for (size_t i = size_; i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.Uniform(0, i - 1)]);
    }
    pos_ = 0;
  }
  return order_[pos_++];
}

RequestStream::RequestStream(const Workload& workload, uint64_t seed,
                             QueryTable* table)
    : workload_(workload), picker_(Picks(workload), Salted(seed, 3)) {
  for (const DocSpec& doc : workload.docs) {
    std::vector<uint32_t> ids;
    for (const std::string& query : doc.queries) {
      ids.push_back(table->Intern(query));
    }
    doc_queries_.push_back(std::move(ids));
  }
  for (uint32_t d = 0; d < doc_queries_.size(); ++d) {
    for (const uint32_t id : doc_queries_[d]) pairs_.emplace_back(d, id);
  }
}

Request RequestStream::Next() {
  Request request;
  const uint64_t k = sent_++;
  switch (workload_.traffic) {
    case Traffic::kQueries: {
      const auto [doc, query] = pairs_[picker_.Next()];
      request.doc = doc;
      request.queries = {query};
      break;
    }
    case Traffic::kBatch:
      request.kind = Request::Kind::kBatch;
      request.doc = static_cast<uint32_t>(picker_.Next());
      request.queries = doc_queries_[request.doc];
      break;
    case Traffic::kFaultIn:
      if (k % 2 == 0) {
        request.kind = Request::Kind::kEvict;
        request.measured = false;
      } else {
        request.queries = {doc_queries_[0][0]};
      }
      break;
  }
  return request;
}

Window::Window(RequestStream* stream, Clock::time_point start,
               double seconds)
    : stream_(stream),
      deadline_(start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds))) {}

std::optional<Request> Window::Next(Clock::time_point now) {
  if (now >= deadline_ && !owes_) return std::nullopt;
  if (replied_.has_value()) {
    send_lag_ms_.push_back(SecondsBetween(*replied_, now) * 1e3);
    replied_.reset();
  }
  Request request = stream_->Next();
  owes_ = !request.measured;
  return request;
}

}  // namespace xcq::servebench
