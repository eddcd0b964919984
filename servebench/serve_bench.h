#ifndef XCQ_SERVEBENCH_SERVE_BENCH_H_
#define XCQ_SERVEBENCH_SERVE_BENCH_H_

/// \file serve_bench.h
/// Shared pieces of bench_serve (SERVE.md): the workload table, the
/// seeded request streams, the uncompressed-tree oracle, reply checking,
/// and the two runs — the untraced run over a live loopback socket and
/// the traced in-process replay of the same streams. Both runs are one
/// client with one request outstanding: on the few cores of a shared host,
/// more concurrency measures the scheduler rather than the server.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "xcq/server/tcp_server.h"
#include "xcq/util/result.h"
#include "xcq/util/rng.h"

namespace xcq::servebench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Percentile `q` in [0, 1] by linear interpolation between order
/// statistics; 0 for an empty sample. Sorts `samples`.
double Percentile(std::vector<double>* samples, double q);

/// Geometric mean of positive `samples`; 0 for an empty sample.
double GeometricMean(const std::vector<double>& samples);

// --- Workloads -------------------------------------------------------------

struct DocSpec {
  std::string name;    ///< Document name on the wire.
  std::string corpus;  ///< Generator name (corpus/registry.h).
  bool xcqi = false;   ///< LOADed as a serialized instance, not as XML.
  double scale = 1.0;  ///< Multiplier on the generator's default size.
  /// The document is warmed with these (to its split fixpoint), and the
  /// traffic draws from them unless it makes its own queries.
  std::vector<std::string> queries;
};

enum class Traffic {
  kQueries,  ///< QUERYs, each a (document, query) pair of the workload.
  kBatch,    ///< BATCHes of a document's queries, the documents in turn.
  kFaultIn,  ///< EVICT, then the QUERY that faults the document back in.
};

struct Workload {
  std::string name;
  Traffic traffic = Traffic::kQueries;
  std::vector<DocSpec> docs;
  bool durable = false;    ///< Spill directory with fsync'd writes.
  /// No split, traversal build or summary build may happen in the
  /// measured window after warm-up.
  bool hot = false;
};

const std::vector<Workload>& AllWorkloads();
const Workload* FindWorkload(std::string_view name);

/// The daemon's defaults (examples/xcq_serverd.cpp): 4 workers, pruning
/// and shared batches on, minimize off, one engine lane.
server::ServerOptions DaemonOptions(const std::string& data_dir);

// --- Inputs ----------------------------------------------------------------

/// One generated document and the file its LOAD names.
struct Corpus {
  std::string xml;
  std::string path;
};

/// Generates every document of `workload` and writes each to `dir` (XML,
/// or a `.xcqi` instance carrying the workload's labels). The corpus seed
/// is fixed: a document's shape sets the work every query does (TreeBank
/// query cost moves by up to 15% and instance size by up to 25% between
/// generator seeds), so `--seed` varies the request streams only.
Result<std::map<std::string, Corpus>> PrepareCorpora(
    const Workload& workload, const std::string& dir);

/// Interned query texts, so a long window of requests stays small.
class QueryTable {
 public:
  uint32_t Intern(const std::string& text);
  const std::string& Text(uint32_t id) const { return texts_[id]; }

 private:
  std::vector<std::string> texts_;
  std::unordered_map<std::string, uint32_t> ids_;
};

struct Request {
  enum class Kind : uint8_t { kQuery, kBatch, kEvict };
  Kind kind = Kind::kQuery;
  uint32_t doc = 0;  ///< Index into Workload::docs.
  /// False for a control request (the EVICT before a fault-in): checked
  /// and counted as attempted, but not a latency or throughput sample.
  bool measured = true;
  std::vector<uint32_t> queries;  ///< QueryTable ids.
};

/// The request as protocol bytes (header plus BATCH body lines).
std::string WireBytes(const Workload& workload, const QueryTable& table,
                      const Request& request);

/// The seeded request stream of one workload. Two instances built from
/// the same seed produce the same requests, which is what lets the
/// traced run replay the untraced one.
class RequestStream {
 public:
  RequestStream(const Workload& workload, uint64_t seed, QueryTable* table);

  Request Next();

 private:
  /// Cycles through a set in seeded random order, one permutation at a
  /// time, so every member has the same share of any window to within
  /// one block: the mix of requests, and so any average over the window,
  /// is the same in every run.
  class Balanced {
   public:
    Balanced(size_t size, uint64_t seed) : size_(size), rng_(seed) {}
    size_t Next();

   private:
    size_t size_;
    Rng rng_;
    std::vector<size_t> order_;
    size_t pos_ = 0;
  };

  const Workload& workload_;
  /// Per document, its DocSpec::queries interned.
  std::vector<std::vector<uint32_t>> doc_queries_;
  /// kQueries: every (document, query) pair, drawn by `picker_`.
  std::vector<std::pair<uint32_t, uint32_t>> pairs_;
  /// Picks a pair (kQueries) or a document (kBatch).
  Balanced picker_;
  uint64_t sent_ = 0;  ///< Requests issued.
};

/// How long one request may take, set-up and window alike, before a run
/// gives up on it (a TreeBank warm-up query takes about 0.1 s).
inline constexpr std::chrono::seconds kCallLimit(120);

/// The window of a run — the traffic shape the socket run and the
/// in-process replay share. One client sends a request, waits for its
/// reply, and sends the next. Requests go out only inside the window,
/// except that a control request (the EVICT before a fault-in) is always
/// followed by its measured request, so a window ends on a whole pair.
class Window {
 public:
  Window(RequestStream* stream, Clock::time_point start, double seconds);

  Clock::time_point deadline() const { return deadline_; }

  /// The request to send at `now`, or nothing once the window is over.
  std::optional<Request> Next(Clock::time_point now);

  /// The reply to the last request was read at `at`.
  void Replied(Clock::time_point at) { replied_ = at; }

  /// How late the client sent, in ms: from the reply that let it send
  /// to the next request.
  std::vector<double>& send_lag_ms() { return send_lag_ms_; }

 private:
  RequestStream* stream_;
  Clock::time_point deadline_;
  bool owes_ = false;  ///< The last request sent was a control one.
  std::optional<Clock::time_point> replied_;
  std::vector<double> send_lag_ms_;
};

// --- Checking --------------------------------------------------------------

/// Tree nodes each query selects on the uncompressed tree of `xml`
/// (`baseline::Evaluate`), the oracle every answer is checked against.
Result<std::vector<uint64_t>> OracleCounts(
    std::string_view xml, const std::vector<std::string>& queries);

/// Every reply's answer is compared with the uncompressed-tree evaluator
/// (`baseline::Evaluate`) over the same XML; answers are remembered per
/// (document, query) and resolved after the window.
class Recorder {
 public:
  Recorder(const Workload& workload, const QueryTable& table)
      : workload_(workload), table_(table) {}

  /// One complete reply. Latency runs from `sent` to `reply_at`, when
  /// its last byte arrived; `in_window` says that was before the window
  /// closed.
  void Complete(const Request& request, const std::vector<std::string>& lines,
                Clock::time_point sent, Clock::time_point reply_at,
                bool in_window);

  /// Resolves the oracle for every answer seen; each reply it
  /// contradicts counts as failed.
  Status CheckAnswers(const std::map<std::string, Corpus>& corpora);

  /// Measured replies per second, from the window's start to the last
  /// reply inside it.
  double Throughput() const;

  uint64_t attempted = 0;       ///< Requests sent, control ones included.
  /// ERR or malformed replies, plus answers the oracle contradicts (a
  /// BATCH counts once per wrong member).
  uint64_t failed = 0;
  uint64_t in_window = 0;       ///< Measured replies inside the window.
  Clock::time_point window_start{};    ///< Set when the window opens.
  Clock::time_point last_in_window{};  ///< When the last of those arrived.
  uint64_t batches = 0;         ///< OK BATCH replies.
  uint64_t measured_queries = 0;  ///< OK replies to measured QUERYs.
  uint64_t splits = 0;          ///< Σ splits= over all answers.
  std::vector<double> latencies_ms;  ///< Measured requests sent in window.
  std::string first_error;

 private:
  /// Counts `requests` failed requests; keeps the first reason.
  void Fail(const std::string& what, uint64_t requests = 1);

  const Workload& workload_;
  const QueryTable& table_;
  struct Answer {
    uint64_t tree = 0;     ///< Tree nodes selected, as first answered.
    uint64_t replies = 0;  ///< Replies that gave this answer.
  };
  std::map<std::pair<uint32_t, uint32_t>, Answer> answers_;
};

// --- Results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

/// What one invocation measured, printed as a table, written to
/// BENCH_serve.json and summarized as the final JSON line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The metrics BENCHMARK.json names for this mode.
  std::vector<Metric> metrics;
  /// Printed and written to BENCH_serve.json, but not gated on.
  std::vector<Metric> diagnostics;
  /// The same in every run (the corpora are fixed): compared exactly
  /// against the baseline.
  std::vector<std::pair<std::string, uint64_t>> structure;
  std::vector<std::string> problems;

  void Add(std::string name, double value, std::string unit,
           uint64_t samples = 0);
  void Note(std::string name, double value, std::string unit,
            uint64_t samples = 0);
  void Problem(std::string what);
};

struct RunOptions {
  const Workload* workload = nullptr;
  uint64_t seed = 42;
  double seconds = 10.0;
  /// Where the corpora, `.xcqi` files and data dirs live; removed at exit.
  std::string scratch_dir;
};

/// The untraced run: set up the real TcpServer on loopback several
/// times, then drive the workload over one socket from this thread.
RunResult RunUntraced(const RunOptions& options);

/// The traced run: a short untraced socket pass for the client-visible
/// p50, then the same request stream replayed in process through the
/// server layers' public calls, with spans around each.
RunResult RunTraced(const RunOptions& options);

// --- Shared set-up and window plumbing -------------------------------------

/// Anything that answers protocol bytes with reply lines: a socket, or
/// the in-process layers. Set-up and warm-up are written once over it.
class Caller {
 public:
  virtual Result<std::vector<std::string>> Call(const std::string& bytes,
                                                bool multi_line) = 0;

 protected:
  ~Caller() = default;
};

/// LOADs every document and warms it to its split fixpoint. Fills
/// `load_seconds`, when not null, per document: the LOAD reply plus its
/// first query, which is where an XML document gets compressed.
Status LoadAndWarm(Caller* caller, const Workload& workload,
                   const std::map<std::string, Corpus>& corpora,
                   std::vector<double>* load_seconds);

/// The store's STATS rows plus its spill-read counter at one instant.
struct StoreSnapshot {
  std::map<std::string, server::DocumentInfo> docs;
  uint64_t spill_reads = 0;

  static StoreSnapshot Of(server::DocumentStore& store);
  uint64_t bytes() const;
  uint64_t vertices() const;
};

/// What a window added to the store's counters. A document faulted in
/// during the window is a fresh instance whose counters restarted, so
/// it contributes its counts since that fault-in.
struct StoreDelta {
  uint64_t traversal_builds = 0;
  uint64_t summary_builds = 0;
  uint64_t scratch_allocs = 0;
  uint64_t batches = 0;
  uint64_t shared = 0;
  uint64_t spill_reads = 0;

  static StoreDelta Between(const StoreSnapshot& before,
                            const StoreSnapshot& after);
};

/// The structural gates of SERVE.md over one window; each violation is
/// a problem that makes the run incorrect.
void CheckStructure(const Workload& workload, const Recorder& recorder,
                    const StoreDelta& delta, RunResult* result);

/// Records `oracle_answer_total`: the oracle's answers to every
/// document's warm-up queries, summed — the same in every run.
void AddOracleStructure(const Workload& workload,
                        const std::map<std::string, Corpus>& corpora,
                        RunResult* result);

/// Resolves the recorder's answers against the oracle and copies its
/// counts into `result`; any failed request makes the run incorrect.
void FinishRecorder(Recorder* recorder,
                    const std::map<std::string, Corpus>& corpora,
                    RunResult* result);

}  // namespace xcq::servebench

#endif  // XCQ_SERVEBENCH_SERVE_BENCH_H_
