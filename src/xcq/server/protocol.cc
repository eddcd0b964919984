#include "xcq/server/protocol.h"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <optional>
#include <utility>

#include "xcq/util/string_util.h"

namespace xcq::server {

namespace {

/// Splits off the first space-separated token of `*rest`, trimming the
/// remainder; empty when exhausted.
std::string_view NextToken(std::string_view* rest) {
  *rest = Trim(*rest);
  const size_t space = rest->find(' ');
  std::string_view token;
  if (space == std::string_view::npos) {
    token = *rest;
    *rest = {};
  } else {
    token = rest->substr(0, space);
    *rest = Trim(rest->substr(space + 1));
  }
  return token;
}

/// Parses `token` as a whole unsigned decimal in [1, max]: digits only,
/// so a sign, whitespace or trailing characters are refused.
std::optional<uint64_t> ParseBoundedCount(std::string_view token,
                                          uint64_t max) {
  uint64_t n = 0;
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), n);
  if (token.empty() || ec != std::errc() ||
      end != token.data() + token.size() || n == 0 || n > max) {
    return std::nullopt;
  }
  return n;
}

/// Parses the `<ms>` value of a `TIMEOUT` clause: all digits, 1 ms to
/// one hour. The cap keeps a typo ("TIMEOUT 50000000000") from quietly
/// meaning "no deadline at all".
Result<uint64_t> ParseTimeoutMs(std::string_view token) {
  const std::optional<uint64_t> ms = ParseBoundedCount(token, 3600000);
  if (!ms.has_value()) {
    return Status::InvalidArgument(
        "TIMEOUT must be an integer number of milliseconds between 1 and "
        "3600000");
  }
  return *ms;
}

/// Appends the serialize span to `outcome`'s trace and emits the
/// one-line JSON trace when `StoreOptions::trace` says so. Thread-safe
/// like the sink it forwards to: traces come from whatever thread
/// served the query.
void MaybeEmitTrace(const DocumentStore* store, const std::string& document,
                    const std::string& query, const QueryOutcome& outcome) {
  const TraceOptions& trace_options = store->options().trace;
  if (trace_options.mode == TraceOptions::Mode::kOff) return;
  if (trace_options.mode == TraceOptions::Mode::kSlow &&
      outcome.trace.Elapsed() < trace_options.slow_threshold_s) {
    return;
  }
  const std::string line = outcome.trace.ToJson(
      document, query, outcome.selected_tree_nodes, outcome.stats.splits);
  if (trace_options.sink) {
    trace_options.sink(line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

/// The request's deadline token: the explicit `TIMEOUT` clause wins,
/// then the handler's default deadline; null when neither applies.
std::shared_ptr<CancelToken> MakeDeadlineToken(uint64_t request_ms,
                                               uint64_t default_ms) {
  const uint64_t ms = request_ms != 0 ? request_ms : default_ms;
  if (ms == 0) return nullptr;
  auto token = std::make_shared<CancelToken>();
  token->SetTimeout(std::chrono::milliseconds(ms));
  return token;
}

/// The canonical over-limit BATCH reply (`--max-batch`). Emitted for
/// the header alone — like a count the parser rejects, no body line is
/// ever consumed for a refused batch.
std::string FormatBatchLimitError(size_t batch_size, size_t max_batch) {
  return FormatError(Status::InvalidArgument(
      StrFormat("BATCH count %zu exceeds the server's limit of %zu queries",
                batch_size, max_batch)));
}

}  // namespace

Result<Request> ParseRequest(std::string_view line) {
  std::string_view rest = Trim(line);
  const std::string_view verb = NextToken(&rest);
  if (verb.empty()) {
    return Status::InvalidArgument("empty request line");
  }

  Request request;
  if (verb == "LOAD") {
    request.kind = Request::Kind::kLoad;
    request.name = std::string(NextToken(&rest));
    request.path = std::string(rest);
    if (request.name.empty() || request.path.empty()) {
      return Status::InvalidArgument("usage: LOAD <name> <path>");
    }
  } else if (verb == "QUERY") {
    request.kind = Request::Kind::kQuery;
    request.name = std::string(NextToken(&rest));
    // Optional deadline clause; `TIMEOUT` is reserved as the first
    // query token (Core XPath queries start with '/', so no real query
    // collides).
    std::string_view peek = rest;
    if (NextToken(&peek) == "TIMEOUT") {
      NextToken(&rest);  // consume the keyword
      const Result<uint64_t> ms = ParseTimeoutMs(NextToken(&rest));
      if (!ms.ok()) return ms.status();
      request.timeout_ms = *ms;
    }
    request.query = std::string(rest);
    if (request.name.empty() || request.query.empty()) {
      return Status::InvalidArgument(
          "usage: QUERY <name> [TIMEOUT <ms>] <query>");
    }
  } else if (verb == "BATCH") {
    request.kind = Request::Kind::kBatch;
    request.name = std::string(NextToken(&rest));
    const std::string_view count = NextToken(&rest);
    if (request.name.empty() || count.empty()) {
      return Status::InvalidArgument(
          "usage: BATCH <name> <count> [TIMEOUT <ms>]");
    }
    if (!rest.empty()) {
      if (NextToken(&rest) != "TIMEOUT") {
        return Status::InvalidArgument(
            "usage: BATCH <name> <count> [TIMEOUT <ms>]");
      }
      const Result<uint64_t> ms = ParseTimeoutMs(NextToken(&rest));
      if (!ms.ok()) return ms.status();
      request.timeout_ms = *ms;
      if (!rest.empty()) {
        return Status::InvalidArgument(
            "usage: BATCH <name> <count> [TIMEOUT <ms>]");
      }
    }
    // The whole token must be digits: "12x" desynchronizes the body
    // framing if accepted as 12.
    const std::optional<uint64_t> n = ParseBoundedCount(count, 100000);
    if (!n.has_value()) {
      return Status::InvalidArgument(
          "BATCH count must be an integer between 1 and 100000");
    }
    request.batch_size = static_cast<size_t>(*n);
  } else if (verb == "STATS") {
    request.kind = Request::Kind::kStats;
    if (!rest.empty()) {
      return Status::InvalidArgument("usage: STATS");
    }
  } else if (verb == "METRICS") {
    request.kind = Request::Kind::kMetrics;
    if (!rest.empty()) {
      return Status::InvalidArgument("usage: METRICS");
    }
  } else if (verb == "EVICT") {
    request.kind = Request::Kind::kEvict;
    request.name = std::string(rest);
    if (request.name.empty()) {
      return Status::InvalidArgument("usage: EVICT <name>");
    }
  } else if (verb == "PERSIST") {
    request.kind = Request::Kind::kPersist;
    request.name = std::string(rest);
    if (request.name.empty()) {
      return Status::InvalidArgument("usage: PERSIST <name>");
    }
  } else if (verb == "FORGET") {
    request.kind = Request::Kind::kForget;
    request.name = std::string(rest);
    if (request.name.empty()) {
      return Status::InvalidArgument("usage: FORGET <name>");
    }
  } else if (verb == "QUIT") {
    request.kind = Request::Kind::kQuit;
  } else {
    return Status::InvalidArgument(
        StrFormat("unknown verb '%s' (expected LOAD, QUERY, BATCH, STATS, "
                  "METRICS, EVICT, PERSIST, FORGET, or QUIT)",
                  std::string(verb).c_str()));
  }
  return request;
}

std::string FormatOutcome(const QueryOutcome& outcome) {
  return StrFormat(
      "dag=%llu tree=%llu splits=%llu label_s=%.6f eval_s=%.6f",
      static_cast<unsigned long long>(outcome.selected_dag_nodes),
      static_cast<unsigned long long>(outcome.selected_tree_nodes),
      static_cast<unsigned long long>(outcome.stats.splits),
      outcome.label_seconds, outcome.stats.seconds);
}

std::string FormatError(const Status& status) {
  std::string flat = status.ToString();
  for (char& c : flat) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return "ERR " + flat;
}

void StripTrailingCr(std::string* line) {
  if (!line->empty() && line->back() == '\r') line->pop_back();
}

void LineFramer::Append(std::string_view bytes) {
  // Past overflow the stream cannot be re-framed — drop everything so
  // a hostile peer cannot grow the buffer either.
  if (overflowed_) return;
  data_.append(bytes);
}

LineFramer::Next LineFramer::NextLine(std::string* line) {
  if (overflowed_) return Next::kOverflow;
  const size_t newline = data_.find('\n', scan_);
  if (newline == std::string::npos) {
    scan_ = data_.size();
    if (data_.size() > max_line_bytes_) {
      overflowed_ = true;
      data_.clear();
      data_.shrink_to_fit();
      scan_ = 0;
      return Next::kOverflow;
    }
    return Next::kNeedMore;
  }
  if (newline > max_line_bytes_) {
    overflowed_ = true;
    data_.clear();
    data_.shrink_to_fit();
    scan_ = 0;
    return Next::kOverflow;
  }
  line->assign(data_, 0, newline);
  StripTrailingCr(line);
  data_.erase(0, newline + 1);
  scan_ = 0;
  return Next::kLine;
}

bool LineFramer::TakeResidual(std::string* line) {
  if (overflowed_ || data_.empty()) return false;
  *line = std::move(data_);
  data_.clear();
  scan_ = 0;
  StripTrailingCr(line);
  return true;
}

std::vector<std::string> BuildLoadReply(DocumentStore* store,
                                        const std::string& name,
                                        const std::string& path) {
  const Status status = store->LoadFile(name, path);
  if (!status.ok()) {
    return {FormatError(status)};
  }
  const std::shared_ptr<StoredDocument> doc = store->Find(name);
  // The document cannot disappear between load and lookup unless a
  // concurrent EVICT raced us; report the load either way.
  if (doc == nullptr) {
    return {StrFormat("OK loaded %s", name.c_str())};
  }
  const DocumentInfo info = doc->Info(name);
  return {StrFormat("OK loaded %s vertices=%zu edges=%llu bytes=%zu source=%s",
                    name.c_str(), info.vertex_count,
                    static_cast<unsigned long long>(info.rle_edges),
                    info.memory_bytes, info.has_source ? "xml" : "xcqi")};
}

std::vector<std::string> BuildQueryReply(DocumentStore* store,
                                         const std::string& name,
                                         const std::string& query,
                                         const QueryResponse& response) {
  if (!response.ok()) {
    return {FormatError(response.status())};
  }
  QueryOutcome outcome = response->front();
  std::string formatted;
  {
    obs::QueryTrace::Scope serialize_span(&outcome.trace,
                                          obs::Phase::kSerialize);
    formatted = "OK " + FormatOutcome(outcome);
  }
  MaybeEmitTrace(store, name, query, outcome);
  return {std::move(formatted)};
}

std::vector<std::string> BuildBatchReply(
    DocumentStore* store, const std::string& name,
    const std::vector<std::string>& queries, const QueryResponse& response) {
  if (!response.ok()) {
    return {FormatError(response.status())};
  }
  std::vector<std::string> lines;
  lines.reserve(response->size() + 1);
  lines.push_back(StrFormat("OK %zu", response->size()));
  for (size_t i = 0; i < response->size(); ++i) {
    QueryOutcome outcome = (*response)[i];
    std::string formatted;
    {
      obs::QueryTrace::Scope serialize_span(&outcome.trace,
                                            obs::Phase::kSerialize);
      formatted = StrFormat("%zu ", i) + FormatOutcome(outcome);
    }
    MaybeEmitTrace(store, name,
                   i < queries.size() ? queries[i] : std::string(), outcome);
    lines.push_back(std::move(formatted));
  }
  return lines;
}

std::vector<std::string> BuildStatsReply(DocumentStore* store,
                                         QueryService* service) {
  std::vector<DocumentInfo> infos = store->Stats();
  std::vector<std::string> lines;
  lines.reserve(infos.size() + 1);
  lines.push_back(StrFormat("OK %zu", infos.size()));
  for (DocumentInfo& info : infos) {
    if (service != nullptr) {
      service->PendingForDocument(info.name, &info.queued, &info.inflight);
      service->ShedForDocument(info.name, &info.shed, &info.cancelled);
    }
    lines.push_back(FormatDocumentInfo(info));
  }
  return lines;
}

std::vector<std::string> BuildMetricsReply(DocumentStore* store) {
  const std::string exposition = store->ScrapeMetrics();
  // Split into lines for the `OK <n>` framing; the exposition never
  // contains empty interior lines, and the trailing newline does not
  // produce a phantom final line.
  std::vector<std::string> lines;
  lines.push_back("");  // placeholder for the OK header
  size_t begin = 0;
  while (begin < exposition.size()) {
    size_t end = exposition.find('\n', begin);
    if (end == std::string::npos) end = exposition.size();
    lines.push_back(exposition.substr(begin, end - begin));
    begin = end + 1;
  }
  lines.front() = StrFormat("OK %zu", lines.size() - 1);
  return lines;
}

std::vector<std::string> BuildEvictReply(DocumentStore* store,
                                         const std::string& name) {
  if (store->Evict(name)) {
    return {StrFormat("OK evicted %s", name.c_str())};
  }
  return {FormatError(Status::NotFound(
      StrFormat("no document named '%s' is loaded", name.c_str())))};
}

std::vector<std::string> BuildPersistReply(DocumentStore* store,
                                           const std::string& name) {
  const Status status = store->Persist(name);
  if (!status.ok()) {
    return {FormatError(status)};
  }
  return {StrFormat("OK persisted %s", name.c_str())};
}

std::vector<std::string> BuildForgetReply(DocumentStore* store,
                                          const std::string& name) {
  if (store->Forget(name)) {
    return {StrFormat("OK forgot %s", name.c_str())};
  }
  return {FormatError(Status::NotFound(
      StrFormat("no document named '%s' is loaded", name.c_str())))};
}

PipelinedHandler::PipelinedHandler(DocumentStore* store, QueryService* service,
                                   ReplySink sink, HandlerOptions options)
    : store_(store),
      service_(service),
      sink_(std::move(sink)),
      options_(options) {
  if (options_.max_inflight < 1) options_.max_inflight = 1;
}

void PipelinedHandler::Complete(uint64_t seq, std::vector<std::string> lines) {
  {
    std::lock_guard<std::mutex> lock(tokens_mu_);
    outstanding_.erase(seq);
  }
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  sink_(seq, JoinLines(lines), /*close_after=*/false);
}

void PipelinedHandler::CancelOutstanding() {
  std::lock_guard<std::mutex> lock(tokens_mu_);
  for (auto& [seq, token] : outstanding_) {
    (void)seq;
    token->Cancel();
  }
}

std::string PipelinedHandler::JoinLines(const std::vector<std::string>& lines) {
  size_t total = 0;
  for (const std::string& line : lines) total += line.size() + 1;
  std::string bytes;
  bytes.reserve(total);
  for (const std::string& line : lines) {
    bytes.append(line);
    bytes.push_back('\n');
  }
  return bytes;
}

void PipelinedHandler::EmitNow(std::vector<std::string> lines,
                               bool close_after) {
  sink_(next_seq_++, JoinLines(lines), close_after);
}

PipelinedHandler::FeedResult PipelinedHandler::Feed(const std::string& line) {
  if (closed_) return FeedResult::kClose;

  if (collecting_.has_value()) {
    // BATCH body: every line — blank included — is one query.
    batch_body_.push_back(line);
    if (batch_body_.size() < collecting_->batch_size) return FeedResult::kOk;
    Request request = std::move(*collecting_);
    collecting_.reset();
    return Dispatch(std::move(request), std::move(batch_body_), nullptr);
  }

  // Blank keep-alive lines are skipped, not answered (see the header).
  if (Trim(line).empty()) return FeedResult::kOk;

  Result<Request> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    EmitNow({FormatError(parsed.status())}, /*close_after=*/false);
    return FeedResult::kOk;
  }

  if (parsed->kind == Request::Kind::kBatch) {
    if (parsed->batch_size > options_.max_batch) {
      // Refused at the header, so no body line is ever collected — the
      // same framing contract as a count the parser itself rejects.
      EmitNow({FormatBatchLimitError(parsed->batch_size, options_.max_batch)},
              /*close_after=*/false);
      return FeedResult::kOk;
    }
    collecting_ = std::move(*parsed);
    batch_body_.clear();
    batch_body_.reserve(collecting_->batch_size);
    return FeedResult::kOk;
  }
  return Dispatch(std::move(*parsed), {}, nullptr);
}

PipelinedHandler::FeedResult PipelinedHandler::Dispatch(
    Request request, std::vector<std::string> batch_queries,
    std::shared_ptr<CancelToken> token) {
  // Only QUIT answers inline on the loop thread (pure protocol state,
  // no store access). Everything else — EVICT included — goes through
  // the worker pool: Evict takes the store's exclusive lock and may
  // destroy an entire document, which must never run on (or block) the
  // thread that owns every socket.
  if (request.kind == Request::Kind::kQuit) {
    closed_ = true;
    EmitNow({"OK bye"}, /*close_after=*/true);
    return FeedResult::kClose;
  }

  // Every QUERY/BATCH carries a token — even without a deadline it is
  // the disconnect-cancellation handle. Created at the first dispatch
  // attempt only (null `token` means this is it), so parking on a full
  // queue does not restart the deadline clock.
  if (token == nullptr && (request.kind == Request::Kind::kQuery ||
                           request.kind == Request::Kind::kBatch)) {
    token = MakeDeadlineToken(request.timeout_ms,
                              options_.default_deadline_ms);
    if (token == nullptr) token = std::make_shared<CancelToken>();
  }

  if (inflight_.load(std::memory_order_relaxed) >= options_.max_inflight) {
    deferred_ =
        Deferred{std::move(request), std::move(batch_queries), std::move(token)};
    return FeedResult::kStalled;
  }

  // The work closure runs on a QueryService worker: evaluate (or load,
  // or scrape), format through the shared builders, hand the bytes to
  // the sink. `self` keeps the handler alive past connection close;
  // the payload is shared so a *refused* submission (queue full) can
  // recover the request for parking instead of losing it.
  const uint64_t seq = next_seq_;
  auto self = shared_from_this();
  auto payload = std::make_shared<Deferred>(Deferred{
      std::move(request), std::move(batch_queries), std::move(token)});
  auto work = [self, seq, payload] {
    const Request& req = payload->request;
    std::vector<std::string> lines;
    switch (req.kind) {
      case Request::Kind::kLoad:
        lines = BuildLoadReply(self->store_, req.name, req.path);
        break;
      case Request::Kind::kQuery: {
        QueryJob job;
        job.document = req.name;
        job.queries.push_back(req.query);
        job.token = payload->token;
        lines = BuildQueryReply(self->store_, req.name, req.query,
                                self->service_->Execute(job));
        break;
      }
      case Request::Kind::kBatch: {
        QueryJob job;
        job.document = req.name;
        job.queries = payload->batch_queries;
        job.batch = true;
        job.token = payload->token;
        lines = BuildBatchReply(self->store_, req.name,
                                payload->batch_queries,
                                self->service_->Execute(job));
        break;
      }
      case Request::Kind::kStats:
        lines = BuildStatsReply(self->store_, self->service_);
        break;
      case Request::Kind::kMetrics:
        lines = BuildMetricsReply(self->store_);
        break;
      case Request::Kind::kEvict:
        lines = BuildEvictReply(self->store_, req.name);
        break;
      case Request::Kind::kPersist:
        lines = BuildPersistReply(self->store_, req.name);
        break;
      case Request::Kind::kForget:
        lines = BuildForgetReply(self->store_, req.name);
        break;
      case Request::Kind::kQuit:
        lines = {FormatError(Status::Internal("unreachable dispatch kind"))};
        break;
    }
    self->Complete(seq, std::move(lines));
  };

  // Count in flight *before* TrySubmitWork: a worker could finish the
  // task before a post-submit fetch_add ran and the counter would go
  // negative. The token registers first for the same reason — a worker
  // completion erases it.
  inflight_.fetch_add(1, std::memory_order_relaxed);
  if (payload->token != nullptr) {
    std::lock_guard<std::mutex> lock(tokens_mu_);
    outstanding_[seq] = payload->token;
  }
  WorkItem item;
  item.document = payload->request.name;
  item.run = std::move(work);
  item.token = payload->token;
  if (payload->token != nullptr) {
    // The shed path: the service refused to evaluate a dead request
    // (deadline passed / client gone while queued) but the reply slot
    // at `seq` is still owed — fill it with the canonical error.
    item.shed = [self, seq](const Status& status) {
      self->Complete(seq, {FormatError(status)});
    };
  }
  if (!service_->TrySubmitWork(std::move(item))) {
    // Refused — the closure was destroyed un-run, so `payload` is ours
    // again. Park it; the caller stops reading this socket until a
    // completion frees queue capacity.
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    if (payload->token != nullptr) {
      std::lock_guard<std::mutex> lock(tokens_mu_);
      outstanding_.erase(seq);
    }
    deferred_ = std::move(*payload);
    return FeedResult::kStalled;
  }
  ++next_seq_;
  if (options_.requests != nullptr) options_.requests->Increment();
  return FeedResult::kOk;
}

PipelinedHandler::FeedResult PipelinedHandler::ResumeDeferred() {
  if (!deferred_.has_value()) return FeedResult::kOk;
  Deferred deferred = std::move(*deferred_);
  deferred_.reset();
  return Dispatch(std::move(deferred.request),
                  std::move(deferred.batch_queries),
                  std::move(deferred.token));
}

void PipelinedHandler::OnInputClosed() {
  if (closed_) return;
  closed_ = true;
  if (collecting_.has_value()) {
    // The batch can never complete and the stream is out of sync:
    // answer ERR and close.
    EmitNow({FormatError(Status::InvalidArgument(
                StrFormat("input ended after %zu of %zu batch queries",
                          batch_body_.size(), collecting_->batch_size)))},
            /*close_after=*/true);
    collecting_.reset();
    return;
  }
  // Nothing mid-frame: close once everything in flight has flushed.
  // An empty reply advances no protocol state but carries the
  // close_after marker at the right position in the sequence.
  EmitNow({}, /*close_after=*/true);
}

void PipelinedHandler::FeedOversized(size_t max_line_bytes) {
  if (closed_) return;
  closed_ = true;
  EmitNow({FormatError(Status::InvalidArgument(StrFormat(
              "request line exceeds %zu bytes", max_line_bytes)))},
          /*close_after=*/true);
}

}  // namespace xcq::server
