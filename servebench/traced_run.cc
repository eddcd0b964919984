// The traced run: the per-layer half of bench_serve (SERVE.md).
//
// A short untraced socket pass gives the client-visible p50. Then the
// same seeded request stream is replayed without a socket, through the
// public calls the daemon's worker closures make — LineFramer +
// ParseRequest, QueryService::TrySubmitWork, DocumentStore::Acquire,
// StoredDocument::Query/Batch, Build{Query,Batch}Reply — with a span
// around each call. Phases inside the session come from each call's
// QueryOutcome (its trace phases and EvalStats). Spans stay in memory
// and are written once, at the end.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>

#include "serve_bench.h"
#include "socket_run.h"
#include "xcq/instance/instance_io.h"
#include "xcq/server/protocol.h"
#include "xcq/util/string_util.h"

namespace xcq::servebench {
namespace {

/// Where the spans go, in the working directory.
constexpr const char* kTraceFile = "BENCH_serve_trace.json";

/// Spans are written for the first this-many requests of the replay;
/// the metrics cover every request.
constexpr uint64_t kTracedRequests = 2000;

/// Repetitions of each spill (de)serialization timing.
constexpr int kIoRepeats = 5;

double Micros(Clock::time_point from, Clock::time_point to) {
  return SecondsBetween(from, to) * 1e6;
}

double Millis(Clock::time_point from, Clock::time_point to) {
  return SecondsBetween(from, to) * 1e3;
}

/// Frames `bytes` the way the event loop does, into one parsed request
/// plus its query texts (the BATCH body, or the QUERY's query).
Status Frame(const std::string& bytes, server::Request* request,
             std::vector<std::string>* texts) {
  server::LineFramer framer;
  framer.Append(bytes);
  std::string line;
  if (framer.NextLine(&line) != server::LineFramer::Next::kLine) {
    return Status::InvalidArgument("unframed request");
  }
  XCQ_ASSIGN_OR_RETURN(*request, server::ParseRequest(line));
  texts->clear();
  if (request->kind == server::Request::Kind::kQuery) {
    texts->push_back(request->query);
  }
  for (size_t i = 0; request->kind == server::Request::Kind::kBatch &&
                     i < request->batch_size;
       ++i) {
    if (framer.NextLine(&line) != server::LineFramer::Next::kLine) {
      return Status::InvalidArgument("truncated BATCH body");
    }
    texts->push_back(line);
  }
  return Status::OK();
}

/// Set-up in process: the calls a worker closure makes, run on this
/// thread.
class LayerCaller : public Caller {
 public:
  LayerCaller(server::DocumentStore* store, server::QueryService* service)
      : store_(store), service_(service) {}

  Result<std::vector<std::string>> Call(const std::string& bytes,
                                        bool) override {
    server::Request request;
    server::QueryJob job;
    XCQ_RETURN_IF_ERROR(Frame(bytes, &request, &job.queries));
    job.document = request.name;
    switch (request.kind) {
      case server::Request::Kind::kLoad:
        return server::BuildLoadReply(store_, request.name, request.path);
      case server::Request::Kind::kQuery:
        return server::BuildQueryReply(store_, request.name, request.query,
                                       service_->Execute(job));
      case server::Request::Kind::kBatch:
        return server::BuildBatchReply(store_, request.name, job.queries,
                                       service_->Execute(job));
      case server::Request::Kind::kEvict:
        return server::BuildEvictReply(store_, request.name);
      default:
        return Status::InvalidArgument("not a set-up request");
    }
  }

 private:
  server::DocumentStore* store_;
  server::QueryService* service_;
};

/// One replayed request and the time stamps its layers left.
struct Job {
  uint64_t id = 0;
  Request request;
  server::Request parsed;
  std::vector<std::string> texts;
  std::shared_ptr<CancelToken> token = std::make_shared<CancelToken>();
  Clock::time_point sent;       ///< Send time; framing + parse start.
  Clock::time_point submitted;  ///< TrySubmitWork accepted it.
  // Written on the worker; read after the completion hand-off.
  Clock::time_point task_start;
  Clock::time_point acquired;
  Clock::time_point call_start;
  Clock::time_point call_end;
  Clock::time_point reply_end;
  bool fault_in = false;
  std::vector<QueryOutcome> outcomes;
  std::vector<std::string> lines;
};

/// The worker side: ExecuteJob's calls, each one stamped.
void RunLayers(server::DocumentStore* store, Job* job) {
  job->task_start = Clock::now();
  const server::Request& parsed = job->parsed;
  if (parsed.kind == server::Request::Kind::kEvict) {
    job->acquired = job->call_start = job->task_start;
    job->lines = server::BuildEvictReply(store, parsed.name);
    job->call_end = job->reply_end = Clock::now();
    return;
  }
  const uint64_t reads = store->spill_reads();
  Result<std::shared_ptr<server::StoredDocument>> doc =
      store->Acquire(parsed.name);
  job->acquired = job->call_start = Clock::now();
  job->fault_in = store->spill_reads() != reads;
  server::QueryResponse response = doc.status();
  if (doc.ok()) {
    QueryControl control;
    control.cancel = job->token.get();
    if (parsed.kind == server::Request::Kind::kBatch) {
      Result<std::vector<QueryOutcome>> outcomes =
          (*doc)->Batch(job->texts, control);
      response = outcomes.ok() ? server::QueryResponse(std::move(*outcomes))
                               : server::QueryResponse(outcomes.status());
    } else {
      Result<QueryOutcome> outcome = (*doc)->Query(job->texts[0], control);
      response = outcome.ok() ? server::QueryResponse(std::vector<QueryOutcome>{
                                    std::move(*outcome)})
                              : server::QueryResponse(outcome.status());
    }
  }
  job->call_end = Clock::now();
  if (response.ok()) job->outcomes = *response;
  job->lines = parsed.kind == server::Request::Kind::kBatch
                   ? server::BuildBatchReply(store, parsed.name, job->texts,
                                             response)
                   : server::BuildQueryReply(store, parsed.name,
                                             job->texts[0], response);
  job->reply_end = Clock::now();
}

/// Span name of one session phase, by the layer that owns it.
std::string PhaseSpanName(obs::Phase phase) {
  switch (phase) {
    case obs::Phase::kParse:
      return "xpath.parse";
    case obs::Phase::kCompile:
      return "algebra.compile";
    case obs::Phase::kPruneBind:
      return "engine.prune_bind";
    case obs::Phase::kSweep:
      return "engine.sweep";
    default:
      return "session." + std::string(obs::PhaseName(phase));
  }
}

/// Spans `{name, start, end, parent, request_id}`, microseconds from the
/// replay's start; `parent` indexes the span list.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int Add(std::string name, double start_us, double end_us, int parent,
          uint64_t request) {
    spans_.push_back({std::move(name), start_us, end_us, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }
  int Add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent, uint64_t request) {
    return Add(std::move(name), Micros(origin_, start), Micros(origin_, end),
               parent, request);
  }

  /// The spans of one finished job: the request, then each layer call
  /// under it, then each session phase under the store call.
  void Record(const Job& job) {
    const int root = Add("request", job.sent, job.reply_end, -1, job.id);
    Add("protocol.frame_parse", job.sent, job.submitted, root, job.id);
    Add("service.queue_wait", job.submitted, job.task_start, root, job.id);
    if (job.parsed.kind == server::Request::Kind::kEvict) {
      Add("store.evict", job.call_start, job.call_end, root, job.id);
      return;
    }
    Add(job.fault_in ? "store.fault_in" : "store.acquire", job.task_start,
        job.acquired, root, job.id);
    const int call = Add("store.query", job.call_start, job.call_end, root,
                         job.id);
    const double base = Micros(origin_, job.call_start);
    for (const QueryOutcome& outcome : job.outcomes) {
      std::vector<int> open;  // innermost span per nesting depth
      for (size_t i = 0; i < outcome.trace.span_count(); ++i) {
        const obs::TraceSpan& s = outcome.trace.span(i);
        open.resize(s.depth);
        const int parent = s.depth == 0 ? call : open.back();
        const double start = base + s.start_seconds * 1e6;
        open.push_back(Add(PhaseSpanName(s.phase), start,
                           start + s.duration_seconds * 1e6, parent, job.id));
      }
    }
    Add("protocol.reply_build", job.call_end, job.reply_end, root, job.id);
  }

  Status Write(const std::string& path, const std::string& workload,
               uint64_t seed) const {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"bench\": \"serve_trace\", \"workload\": \"" << workload
        << "\", \"seed\": " << seed << ", \"unit\": \"us\",\n \"spans\": [";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\n  {\"name\": \"%s\", \"start\": %.3f, \"end\": %.3f, "
                    "\"parent\": %s, \"request_id\": %llu}",
                    i == 0 ? "" : ",", s.name.c_str(), s.start_us, s.end_us,
                    s.parent < 0 ? "null"
                                 : std::to_string(s.parent).c_str(),
                    static_cast<unsigned long long>(s.request));
      out << buf;
    }
    out << "\n ]}\n";
    out.close();
    if (!out) return Status::IoError("cannot write " + path);
    return Status::OK();
  }

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    int parent;
    uint64_t request;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Per-layer samples gathered from finished jobs. Every time sample is
/// taken on every workload; what only some traffic exercises (prune
/// binding and the axis families, which shared batches do not time
/// apart) is kept as a share of sweep time.
struct Layers {
  std::vector<double> frame_us, reply_us, queue_ms, acquire_us;
  std::vector<double> residual_ms, label_ms, parse_us, compile_us;
  std::vector<double> sweep_ms, request_ms;
  /// Over QUERY requests: their sweep time, and the parts of it spent
  /// binding the pruner and in each axis family's kernels.
  double query_sweep_seconds = 0.0;
  double prune_bind_seconds = 0.0;
  double axis_seconds[engine::kAxisFamilyCount] = {};
  uint64_t visited = 0;
  uint64_t full = 0;
  uint64_t splits = 0;

  void Add(const Job& job) {
    frame_us.push_back(Micros(job.sent, job.submitted));
    queue_ms.push_back(Millis(job.submitted, job.task_start));
    if (job.request.measured) {
      request_ms.push_back(Millis(job.sent, job.reply_end));
    }
    if (job.parsed.kind == server::Request::Kind::kEvict) return;
    acquire_us.push_back(Micros(job.task_start, job.acquired));
    reply_us.push_back(Micros(job.call_end, job.reply_end));
    if (job.outcomes.empty()) return;
    const bool batch = job.parsed.kind == server::Request::Kind::kBatch;
    double phases = 0.0;
    double label = 0.0;
    double sweep = 0.0;
    for (const QueryOutcome& outcome : job.outcomes) {
      const obs::QueryTrace& trace = outcome.trace;
      for (const obs::Phase p :
           {obs::Phase::kParse, obs::Phase::kCompile, obs::Phase::kLabel,
            obs::Phase::kSweep, obs::Phase::kMinimize}) {
        phases += trace.PhaseSeconds(p);
      }
      sweep += trace.PhaseSeconds(obs::Phase::kSweep);
      label += outcome.label_seconds;
      parse_us.push_back(trace.PhaseSeconds(obs::Phase::kParse) * 1e6);
      compile_us.push_back(trace.PhaseSeconds(obs::Phase::kCompile) * 1e6);
      visited += outcome.stats.sweep_visited;
      full += outcome.stats.sweep_full;
      splits += outcome.stats.splits;
      if (!batch) {
        query_sweep_seconds += trace.PhaseSeconds(obs::Phase::kSweep);
        prune_bind_seconds += outcome.stats.prune_bind_seconds;
        for (size_t f = 0; f < engine::kAxisFamilyCount; ++f) {
          axis_seconds[f] += outcome.stats.axis[f].seconds;
        }
      }
    }
    // Store time the phases do not account for: the document lock wait,
    // the respill after label growth, metrics bookkeeping.
    residual_ms.push_back(
        std::max(0.0, SecondsBetween(job.call_start, job.call_end) - phases) *
        1e3);
    label_ms.push_back(label * 1e3);
    sweep_ms.push_back(sweep * 1e3);
  }
};

/// Hands `job` to the service's workers, as the event loop does, and
/// waits until its reply lines are in `job`. An error means the job never
/// finished; a worker may still hold it.
Status Submit(server::DocumentStore* store, server::QueryService* service,
              const std::shared_ptr<Job>& job) {
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> replied = done->get_future();
  job->submitted = Clock::now();
  server::WorkItem item;
  item.document = job->parsed.name;
  item.token = job->token;
  item.run = [store, job, done] {
    RunLayers(store, job.get());
    done->set_value();
  };
  item.shed = [job, done](const Status& status) {
    job->task_start = job->acquired = job->call_start = job->call_end =
        job->reply_end = Clock::now();
    job->lines = {server::FormatError(status)};
    done->set_value();
  };
  if (!service->TrySubmitWork(std::move(item))) {
    return Status::ResourceExhausted("the service refused a request");
  }
  if (replied.wait_for(kCallLimit) != std::future_status::ready) {
    job->token->Cancel();
    return Status::DeadlineExceeded("no reply");
  }
  return Status::OK();
}

/// Replays `stream` against the in-process layers for `seconds`, one
/// request at a time like the socket run.
Status Replay(const Workload& workload, RequestStream* stream,
              const QueryTable& table, server::DocumentStore* store,
              server::QueryService* service, double seconds,
              Recorder* recorder, Layers* layers, SpanLog* spans,
              Clock::time_point start) {
  recorder->window_start = start;
  Window window(stream, start, seconds);
  for (uint64_t id = 0;; ++id) {
    std::optional<Request> request = window.Next(Clock::now());
    if (!request.has_value()) break;
    auto job = std::make_shared<Job>();
    job->id = id;
    job->sent = Clock::now();
    const Status framed =
        Frame(WireBytes(workload, table, *request), &job->parsed, &job->texts);
    job->request = std::move(*request);
    ++recorder->attempted;
    if (framed.ok()) {
      const Status submitted = Submit(store, service, job);
      if (!submitted.ok()) {
        ++recorder->failed;
        return submitted;
      }
    } else {
      job->submitted = job->task_start = job->acquired = job->call_start =
          job->call_end = job->reply_end = Clock::now();
      job->lines = {server::FormatError(framed)};
    }
    window.Replied(job->reply_end);
    recorder->Complete(job->request, job->lines, job->sent, job->reply_end,
                       job->reply_end < window.deadline());
    layers->Add(*job);
    if (job->id < kTracedRequests) spans->Record(*job);
  }
  return Status::OK();
}

/// Median (de)serialization time of every spill in `data_dir`: the
/// `instance_io` cost a fault-in and a respill pay.
void TimeSpills(const std::string& data_dir, double* deserialize_ms,
                double* serialize_ms) {
  std::vector<double> reads;
  std::vector<double> writes;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::directory_iterator(data_dir, error)) {
    if (entry.path().extension() != ".xcqi") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    const std::string spill = bytes.str();
    for (int i = 0; i < kIoRepeats; ++i) {
      const Clock::time_point t0 = Clock::now();
      Result<Instance> instance = DeserializeInstance(spill);
      const Clock::time_point t1 = Clock::now();
      if (!instance.ok()) break;
      const std::string again = SerializeInstanceChecksummed(*instance);
      const Clock::time_point t2 = Clock::now();
      if (again.empty()) break;
      reads.push_back(Millis(t0, t1));
      writes.push_back(Millis(t1, t2));
    }
  }
  *deserialize_ms = Percentile(&reads, 0.5);
  *serialize_ms = Percentile(&writes, 0.5);
}

}  // namespace

RunResult RunTraced(const RunOptions& options) {
  const Workload& workload = *options.workload;
  RunResult result;
  const auto fail = [&](const Status& status) {
    result.Problem(status.ToString());
    return result;
  };
  Result<std::map<std::string, Corpus>> corpora =
      PrepareCorpora(workload, options.scratch_dir + "/corpus");
  if (!corpora.ok()) return fail(corpora.status());
  AddOracleStructure(workload, *corpora, &result);
  const double half = options.seconds / 2.0;

  // 1. The client-visible p50 the layers are attributed against: the
  // same stream over the socket, untraced.
  QueryTable table;
  Recorder socket_recorder(workload, table);
  std::vector<double> send_lag_ms;
  {
    const std::string data_dir = workload.durable
                                     ? options.scratch_dir + "/socket_data"
                                     : std::string();
    Result<std::unique_ptr<server::TcpServer>> server =
        StartServer(workload, *corpora, data_dir);
    if (!server.ok()) return fail(server.status());
    Result<std::unique_ptr<Conn>> conn = Conn::Dial((*server)->port());
    if (!conn.ok()) return fail(conn.status());
    RequestStream stream(workload, options.seed, &table);
    const Status drove = DriveSocket(workload, &stream, table, conn->get(),
                                     half, &socket_recorder, &send_lag_ms);
    if (!drove.ok()) result.Problem(drove.ToString());
    conn->reset();
    (*server)->Stop();
  }

  // 2. The replay, in process, traced. Its store always has a data dir,
  // so every workload's documents leave spills for instance_io to be
  // timed on. A hot window writes none: spills follow label growth,
  // which warm-up has finished.
  const std::string data_dir = options.scratch_dir + "/replay_data";
  const server::ServerOptions daemon = DaemonOptions(data_dir);
  server::StoreOptions store_options;
  store_options.session = daemon.session;
  store_options.data_dir = daemon.data_dir;
  server::DocumentStore store(store_options);
  server::ServiceOptions service_options;
  service_options.worker_threads = daemon.worker_threads;
  service_options.queue_depth = daemon.queue_depth;
  server::QueryService service(&store, service_options);
  std::vector<double> load_seconds;
  {
    LayerCaller caller(&store, &service);
    const Status warmed =
        LoadAndWarm(&caller, workload, *corpora, &load_seconds);
    if (!warmed.ok()) return fail(warmed);
  }
  Recorder recorder(workload, table);
  Layers layers;
  const Clock::time_point start = Clock::now();
  SpanLog spans(start);
  const StoreSnapshot before = StoreSnapshot::Of(store);
  {
    RequestStream stream(workload, options.seed, &table);
    const Status replayed = Replay(workload, &stream, table, &store, &service,
                                   half, &recorder, &layers, &spans, start);
    if (!replayed.ok()) result.Problem(replayed.ToString());
  }
  const StoreSnapshot after = StoreSnapshot::Of(store);
  const StoreDelta delta = StoreDelta::Between(before, after);
  double deserialize_ms = 0.0;
  double serialize_ms = 0.0;
  TimeSpills(data_dir, &deserialize_ms, &serialize_ms);

  CheckStructure(workload, recorder, delta, &result);
  FinishRecorder(&socket_recorder, *corpora, &result);
  const uint64_t socket_attempted = result.attempted;
  const uint64_t socket_failed = result.failed;
  FinishRecorder(&recorder, *corpora, &result);
  result.attempted += socket_attempted;
  result.failed += socket_failed;
  const Status written = spans.Write(kTraceFile, workload.name,
                                     options.seed);
  if (!written.ok()) result.Problem(written.ToString());

  const auto percentile = [&](const char* name, std::vector<double>* samples,
                              double q, const char* unit) {
    const uint64_t n = samples->size();
    result.Add(name, Percentile(samples, q), unit, n);
  };
  const auto count = [&](const char* name, uint64_t value) {
    result.Add(name, static_cast<double>(value), "count");
  };
  const auto ratio = [](uint64_t part, uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  const double socket_p50 = Percentile(&socket_recorder.latencies_ms, 0.5);
  const double replay_p50 = Percentile(&layers.request_ms, 0.5);
  double load_total = 0.0;
  for (const double s : load_seconds) load_total += s;

  percentile("protocol.frame_parse_us.p50", &layers.frame_us, 0.5, "us");
  percentile("protocol.reply_build_us.p50", &layers.reply_us, 0.5, "us");
  result.Add("frontend.unattributed_ms.p50", socket_p50 - replay_p50, "ms",
             socket_recorder.latencies_ms.size());
  percentile("service.queue_wait_ms.p50", &layers.queue_ms, 0.5, "ms");
  percentile("service.queue_wait_ms.p99", &layers.queue_ms, 0.99, "ms");
  percentile("store.acquire_us.p50", &layers.acquire_us, 0.5, "us");
  percentile("store.residual_ms.p50", &layers.residual_ms, 0.5, "ms");
  percentile("store.residual_ms.p99", &layers.residual_ms, 0.99, "ms");
  count("store.spill_reads", delta.spill_reads);
  result.Add("instance_io.deserialize_ms", deserialize_ms, "ms");
  result.Add("instance_io.serialize_ms", serialize_ms, "ms");
  count("instance.traversal_builds", delta.traversal_builds);
  count("instance.summary_builds", delta.summary_builds);
  count("instance.scratch_allocs", delta.scratch_allocs);
  result.Add("instance.memory_mb",
             static_cast<double>(after.bytes()) / (1024.0 * 1024.0), "MiB",
             after.docs.size());
  percentile("session.label_ms.p50", &layers.label_ms, 0.5, "ms");
  percentile("xpath.parse_us.p50", &layers.parse_us, 0.5, "us");
  percentile("algebra.compile_us.p50", &layers.compile_us, 0.5, "us");
  percentile("engine.sweep_ms.p50", &layers.sweep_ms, 0.5, "ms");
  percentile("engine.sweep_ms.p99", &layers.sweep_ms, 0.99, "ms");
  const auto share = [&](const std::string& name, double seconds) {
    result.Add(name,
               layers.query_sweep_seconds > 0.0
                   ? seconds / layers.query_sweep_seconds
                   : 0.0,
               "ratio");
  };
  share("engine.prune_bind_share", layers.prune_bind_seconds);
  for (size_t f = 0; f < engine::kAxisFamilyCount; ++f) {
    const std::string_view family =
        engine::AxisFamilyName(static_cast<engine::AxisFamily>(f));
    share("engine." + std::string(family) + "_share", layers.axis_seconds[f]);
  }
  result.Add("engine.visited_ratio", ratio(layers.visited, layers.full),
             "ratio");
  count("engine.splits", layers.splits);
  result.Add("engine.shared_batch_rate", ratio(delta.shared, delta.batches),
             "ratio", delta.batches);
  result.Add("compress.load_s",
             load_seconds.empty()
                 ? 0.0
                 : load_total / static_cast<double>(load_seconds.size()),
             "s", load_seconds.size());
  percentile("bench.send_lag_ms.p99", &send_lag_ms, 0.99, "ms");
  result.Note("replay.request_ms.p50", replay_p50, "ms",
              layers.request_ms.size());
  result.Note("socket.p50_ms", socket_p50, "ms",
              socket_recorder.latencies_ms.size());
  return result;
}

}  // namespace xcq::servebench
