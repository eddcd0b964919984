#ifndef XCQ_SERVER_PROTOCOL_H_
#define XCQ_SERVER_PROTOCOL_H_

/// \file protocol.h
/// The daemon's line-oriented text protocol, kept free of socket code so
/// the whole conversation logic is unit-testable over strings.
///
/// Requests (one line each, fields space-separated; `\r` tolerated):
///
///   LOAD <name> <path>      cache file `path` (`.xcqi` instance or raw
///                           XML, sniffed from the leading bytes) as
///                           document `name`
///   QUERY <name> [TIMEOUT <ms>] <query>
///                           evaluate one Core XPath query (the query is
///                           the rest of the line, spaces included). An
///                           optional `TIMEOUT <ms>` clause right after
///                           the name sets this request's deadline; a
///                           request that misses it answers
///                           `ERR DeadlineExceeded: ...` (`TIMEOUT` is
///                           therefore a reserved word in that position)
///   BATCH <name> <count> [TIMEOUT <ms>]
///                           followed by <count> lines, one query each;
///                           evaluated with a single merged label pass.
///                           The optional deadline covers the whole batch
///   STATS                   one line per cached document
///   METRICS                 Prometheus text exposition format scrape
///                           (docs/OBSERVABILITY.md)
///   EVICT <name>            drop a document's residency (spill-backed
///                           documents demote to warm entries and fault
///                           back in on the next QUERY/BATCH)
///   PERSIST <name>          force a durable spill write now (requires
///                           `--data-dir`; see docs/SERVER.md)
///   FORGET <name>           remove a document everywhere: residency,
///                           warm entry, spill file
///   QUIT                    close the conversation
///
/// Blank (or whitespace-only) lines *between* requests are keep-alive
/// no-ops: the handler skips them without answering. Inside a BATCH
/// body a blank line still counts as one (empty) query. A request line
/// that is non-blank but has no parseable verb answers `ERR`.
///
/// Responses: first line `OK ...` or `ERR <Code>: <message>`. QUERY:
/// `OK dag=<d> tree=<t> splits=<s> label_s=<x> eval_s=<y>`. BATCH,
/// STATS, and METRICS: `OK <n>` followed by exactly n detail lines, so
/// clients can read a response without a terminator sentinel. A failed
/// BATCH fails as a whole (one ERR line) — batches are atomic.
///
/// The STATS line format is frozen: fields are `key=value`, space
/// separated, in the exact order documented in docs/SERVER.md; new
/// fields are appended, existing ones never move or disappear —
/// scripts may parse by position or by key.
///
/// Three layers, innermost first:
///
///  * `LineFramer` — incremental byte→line framing with a bounded line
///    length, shared by the epoll front end and the fuzzer.
///  * `Build*Reply` — pure request→response-lines functions; the single
///    source of response bytes.
///  * `PipelinedHandler` — the per-connection state machine: many
///    requests in flight, replies reassembled by sequence number,
///    admission control + per-connection in-flight limits. It is the
///    one request path: `Feed` → `QueryService::TrySubmitWork` → a
///    worker runs `QueryService::Execute` and a `Build*Reply`. Tests
///    drive it over strings; the event loop drives it over sockets.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "xcq/server/document_store.h"
#include "xcq/server/query_service.h"
#include "xcq/util/result.h"

namespace xcq::server {

/// \brief A parsed request line.
struct Request {
  enum class Kind {
    kLoad,
    kQuery,
    kBatch,
    kStats,
    kMetrics,
    kEvict,
    kPersist,
    kForget,
    kQuit,
  };
  Kind kind = Kind::kStats;
  std::string name;      ///< Document name (LOAD/QUERY/BATCH/EVICT/
                         ///  PERSIST/FORGET).
  std::string path;      ///< LOAD only.
  std::string query;     ///< QUERY only — the rest of the line.
  size_t batch_size = 0; ///< BATCH only.
  uint64_t timeout_ms = 0;  ///< QUERY/BATCH `TIMEOUT` clause; 0 = none
                            ///  (the handler's default deadline applies).
};

/// \brief Configuration of one `PipelinedHandler` conversation.
struct HandlerOptions {
  /// Outstanding (dispatched, not yet completed) requests allowed on
  /// the connection before `Feed` stalls it (`ServerOptions::
  /// max_inflight_per_connection`); values below 1 act as 1.
  size_t max_inflight = 32;
  /// Deadline applied to QUERY/BATCH requests that carry no `TIMEOUT`
  /// clause (daemon `--default-deadline-ms`); 0 = no default deadline.
  uint64_t default_deadline_ms = 0;
  /// Upper bound on BATCH body sizes (daemon `--max-batch`); a header
  /// announcing more queries answers a canonical `ERR InvalidArgument`
  /// without consuming any body lines (same contract as a count the
  /// parser itself rejects).
  size_t max_batch = 100000;
  /// Incremented once per dispatched request; null = not counted.
  obs::Counter* requests = nullptr;
};

/// \brief Parses one request line; `kInvalidArgument` on malformed input
/// or unknown verbs.
Result<Request> ParseRequest(std::string_view line);

/// \brief `dag=.. tree=.. splits=.. label_s=.. eval_s=..` for one outcome.
std::string FormatOutcome(const QueryOutcome& outcome);

/// \brief `ERR <Code>: <message>` with newlines flattened, so an error
/// always stays one line.
std::string FormatError(const Status& status);

/// Default `LineFramer` bound; also the daemon's request-line cap.
inline constexpr size_t kDefaultMaxLineBytes = 64 * 1024;

/// \brief Incremental line framing over a byte stream.
///
/// Feed arbitrary byte chunks with `Append` (partial lines, many lines
/// at once — however the socket delivered them) and pull complete lines
/// with `NextLine`. Lines are LF-terminated; one trailing `\r` is
/// stripped (so `\r\n` and `\n` are equivalent, and a bare interior
/// `\r` stays part of the line). A line longer than `max_line_bytes`
/// trips the **sticky overflow** state: the buffer is discarded, later
/// `Append`s are dropped, and `NextLine` keeps answering `kOverflow` —
/// the connection is beyond repair (the discarded bytes cannot be
/// re-framed) and must be closed after one canonical `ERR`. This is
/// what bounds per-connection input memory no matter what bytes arrive.
class LineFramer {
 public:
  explicit LineFramer(size_t max_line_bytes = kDefaultMaxLineBytes)
      : max_line_bytes_(max_line_bytes) {}

  enum class Next {
    kLine,      ///< `*line` holds the next complete line.
    kNeedMore,  ///< No complete line buffered; Append more bytes.
    kOverflow,  ///< A line exceeded the bound; the stream is unusable.
  };

  void Append(std::string_view bytes);

  Next NextLine(std::string* line);

  /// At end of input: the final unterminated line, if any (trailing
  /// `\r` stripped, like a terminated line). False when nothing is
  /// buffered or the framer overflowed.
  bool TakeResidual(std::string* line);

  size_t buffered() const { return data_.size(); }
  bool overflowed() const { return overflowed_; }
  size_t max_line_bytes() const { return max_line_bytes_; }

 private:
  size_t max_line_bytes_;
  std::string data_;
  /// Resume point for the newline scan, so repeated `kNeedMore` polls
  /// do not rescan the prefix.
  size_t scan_ = 0;
  bool overflowed_ = false;
};

/// Strips one trailing '\r' (the `\r\n` tolerance) in place.
void StripTrailingCr(std::string* line);

/// \name Reply builders
/// Each returns the complete response as lines (no terminators). They
/// are the single source of truth for response bytes: `PipelinedHandler`
/// formats every reply through them, from whatever worker thread ran
/// the request. Trace emission (`StoreOptions::trace`) happens inside
/// the query/batch builders.
/// @{

/// Performs the load and formats its reply.
std::vector<std::string> BuildLoadReply(DocumentStore* store,
                                        const std::string& name,
                                        const std::string& path);

/// Formats one QUERY response (one `OK ...` or `ERR ...` line).
std::vector<std::string> BuildQueryReply(DocumentStore* store,
                                         const std::string& name,
                                         const std::string& query,
                                         const QueryResponse& response);

/// Formats one BATCH response (`OK <n>` + n detail lines, or one ERR).
std::vector<std::string> BuildBatchReply(
    DocumentStore* store, const std::string& name,
    const std::vector<std::string>& queries, const QueryResponse& response);

/// `OK <n>` + one frozen-format line per document. `service` may be
/// null (no queue columns — the embedder case); with a service the
/// per-document `queued=`/`inflight=` fields read its counts.
std::vector<std::string> BuildStatsReply(DocumentStore* store,
                                         QueryService* service);

/// `OK <n>` + the Prometheus exposition, one line each.
std::vector<std::string> BuildMetricsReply(DocumentStore* store);

/// Performs the evict and formats its reply.
std::vector<std::string> BuildEvictReply(DocumentStore* store,
                                         const std::string& name);

/// Performs the forced spill write and formats its reply.
std::vector<std::string> BuildPersistReply(DocumentStore* store,
                                           const std::string& name);

/// Removes the document everywhere and formats its reply.
std::vector<std::string> BuildForgetReply(DocumentStore* store,
                                          const std::string& name);

/// @}

/// \brief Per-connection protocol state machine for the epoll front end:
/// pipelined requests, in-order replies, admission control.
///
/// The event loop feeds framed lines in arrival order; the handler
/// assigns each request a **sequence number** at dispatch and hands the
/// work to the `QueryService` pool. Completions run on worker threads,
/// format the reply through the `Build*Reply` functions, and deliver
/// the bytes via the `ReplySink` — the event loop reassembles them in
/// sequence order, so replies always come back in request order even
/// though evaluations may finish out of order. (Replies are *written*
/// in order; side-effecting verbs — LOAD, EVICT — may still *execute*
/// concurrently with earlier in-flight queries. A client that needs
/// strict effect ordering waits for each reply, exactly as it would
/// without pipelining.)
///
/// Backpressure: a dispatch is refused — and the request **parked**,
/// not dropped — when this connection already has `max_inflight`
/// requests outstanding or the service's bounded queue is full. `Feed`
/// then answers `kStalled`; the event loop stops reading the socket
/// (kernel TCP backpressure does the rest) and calls `ResumeDeferred`
/// when a completion frees capacity.
///
/// Threading: `Feed` / `ResumeDeferred` / `OnInputClosed` /
/// `FeedOversized` are called from the event-loop thread only. The
/// completion path (and therefore the sink) runs on worker threads.
/// The handler is held by `shared_ptr`; worker closures keep it alive
/// past connection close, and the sink is responsible for tolerating
/// completions for connections that no longer exist.
class PipelinedHandler
    : public std::enable_shared_from_this<PipelinedHandler> {
 public:
  /// Receives one complete reply: `bytes` is newline-terminated wire
  /// data; replies must be written strictly in `seq` order (0,1,2,...).
  /// `close_after` asks the front end to close the connection once
  /// every reply up to and including `seq` is flushed. May be invoked
  /// from worker threads or inline from the event-loop thread.
  using ReplySink =
      std::function<void(uint64_t seq, std::string bytes, bool close_after)>;

  PipelinedHandler(DocumentStore* store, QueryService* service,
                   ReplySink sink, HandlerOptions options = {});

  enum class FeedResult {
    kOk,       ///< Line consumed; keep feeding.
    kStalled,  ///< Request parked — stop reading until ResumeDeferred.
    kClose,    ///< Conversation over (QUIT / fatal framing error); stop
               ///< reading, flush, close.
  };

  /// Consumes one framed input line.
  FeedResult Feed(const std::string& line);

  /// Retries the parked request, if any. `kOk` means capacity was found
  /// (or nothing was parked) and reading may resume; `kStalled` means
  /// still no room.
  FeedResult ResumeDeferred();

  /// End of input. A batch body still being collected answers one
  /// `ERR InvalidArgument` ("input ended after k of n batch queries")
  /// and the connection closes; otherwise the close is queued behind
  /// every reply still in flight.
  void OnInputClosed();

  /// The framer overflowed: emit the canonical oversized-line `ERR`
  /// (close_after) — the stream cannot be re-framed.
  void FeedOversized(size_t max_line_bytes);

  /// The client is gone: cancels every queued and in-flight request
  /// dispatched by this connection. Queued work is then shed at dequeue
  /// (never evaluated); in-flight evaluations abort at their next
  /// cancellation checkpoint. Their replies still flow to the sink in
  /// sequence order — the sink already tolerates completions for closed
  /// connections. Loop thread only (like Feed), idempotent.
  void CancelOutstanding();

  bool has_deferred() const { return deferred_.has_value(); }

  /// Requests dispatched but not yet completed (worker side decrements).
  uint64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

  /// Sequence numbers handed out so far == replies owed to the client.
  uint64_t dispatched() const { return next_seq_; }

 private:
  struct Deferred {
    Request request;
    std::vector<std::string> batch_queries;
    /// Created at the *first* dispatch attempt so the deadline keeps
    /// running while the request is parked — parking must not extend a
    /// request's deadline.
    std::shared_ptr<CancelToken> token;
  };

  /// Admission-checks and dispatches one parsed request; parks it and
  /// returns kStalled when out of capacity. `token` is non-null only
  /// when re-dispatching a parked request that already has one.
  FeedResult Dispatch(Request request, std::vector<std::string> batch_queries,
                      std::shared_ptr<CancelToken> token);
  /// Worker-side completion shared by the run and shed paths: retires
  /// `seq`'s token, decrements the in-flight count, and hands the bytes
  /// to the sink.
  void Complete(uint64_t seq, std::vector<std::string> lines);
  /// Emits an already-built reply inline (loop thread), in sequence.
  void EmitNow(std::vector<std::string> lines, bool close_after);
  /// Response lines → newline-terminated wire bytes.
  static std::string JoinLines(const std::vector<std::string>& lines);

  DocumentStore* store_;
  QueryService* service_;
  ReplySink sink_;
  HandlerOptions options_;
  /// Tokens of dispatched-but-uncompleted QUERY/BATCH requests, by
  /// sequence number. Guarded by `tokens_mu_`: inserted on the loop
  /// thread at dispatch, erased by workers at completion, swept by
  /// `CancelOutstanding` when the connection dies.
  std::mutex tokens_mu_;
  std::map<uint64_t, std::shared_ptr<CancelToken>> outstanding_;
  /// Next sequence number to assign; loop thread only. Monotonic in
  /// request order because nothing feeds while a request is parked.
  uint64_t next_seq_ = 0;
  std::atomic<uint64_t> inflight_{0};
  /// BATCH body being collected (header seen, queries outstanding).
  std::optional<Request> collecting_;
  std::vector<std::string> batch_body_;
  /// Request admitted nowhere yet — retried by ResumeDeferred.
  std::optional<Deferred> deferred_;
  bool closed_ = false;
};

}  // namespace xcq::server

#endif  // XCQ_SERVER_PROTOCOL_H_
