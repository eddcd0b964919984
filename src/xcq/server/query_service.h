#ifndef XCQ_SERVER_QUERY_SERVICE_H_
#define XCQ_SERVER_QUERY_SERVICE_H_

/// \file query_service.h
/// Fixed-size worker pool that compiles and evaluates queries against
/// `DocumentStore` documents, behind a **bounded submission queue** —
/// the admission-control point between the async front end and the
/// evaluation workers.
///
/// Every QUERY / BATCH / LOAD / STATS request becomes a task executed
/// on one of `worker_threads` pool threads, so the number of concurrent
/// evaluations — and therefore peak split-growth memory — is bounded no
/// matter how many clients connect. Submission is admission-controlled:
/// `TrySubmitWork` refuses (returns false, nothing enqueued) when the
/// bounded queue (`ServiceOptions::queue_depth`) is full. The event
/// loop reacts by *pausing the connection's socket reads* — natural TCP
/// backpressure — and retrying when a completion frees a slot, so
/// overload stalls clients instead of dropping or reordering work.
/// A task that evaluates calls `Execute` on its worker thread.
///
/// Completions are plain callbacks run on the worker thread that
/// executed the task; the async front end's callbacks format the
/// response and hand the bytes back to the event loop (the "completion
/// enqueues bytes" inversion — see tcp_server.h).
///
/// Batching: a job carrying N queries is evaluated via
/// `QuerySession::RunBatch`, which unions the label sets of all N
/// queries *before* the one merge+evaluate pass — the common-extension
/// work is paid once per batch instead of once per query.
///
/// Observability: the service registers `xcq_server_queue_depth`,
/// `xcq_server_queue_limit`, `xcq_server_queue_rejections_total`, and
/// `xcq_server_jobs_inflight` on the store's registry
/// (docs/OBSERVABILITY.md) and keeps per-document queued/in-flight
/// counts for the STATS `queued=`/`inflight=` fields.
///
/// Deadlines and load shedding: a `WorkItem` may carry a `CancelToken`
/// (deadline and/or client-disconnect cancellation). The service never
/// runs a dead request: a task whose token is expired or cancelled at
/// dequeue is **shed** — its `shed` callback (which still owes the
/// client a canonical `ERR DeadlineExceeded` / `ERR Cancelled` reply
/// under the pipelined protocol) runs instead of `run`, off the worker's
/// evaluation path. A *full* bounded queue additionally sheds one
/// already-dead queued task to admit fresh work, so a storm of expired
/// requests cannot wedge the queue ahead of live ones. Disjoint counter
/// semantics per request: `shed_total` = deadline expired before
/// execution; `cancelled_total` = token cancelled (queued or
/// in-flight); `deadline_exceeded_total` = execution started and hit
/// the deadline mid-evaluation.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "xcq/server/document_store.h"
#include "xcq/util/cancel.h"
#include "xcq/util/result.h"

namespace xcq::server {

struct ServiceOptions {
  /// Worker pool size; clamped to at least 1.
  size_t worker_threads = 4;
  /// Bound on tasks waiting in the queue; a `TrySubmitWork` past it is
  /// refused. 0 = unbounded.
  size_t queue_depth = 0;
};

/// \brief One unit of work: evaluate `queries` against document `name`.
struct QueryJob {
  std::string document;
  std::vector<std::string> queries;
  /// Runs as a BATCH (`StoredDocument::Batch`, counted in `batches=`)
  /// even with one query; a job of several queries always does.
  bool batch = false;
  /// Cancellation / deadline state threaded into the evaluation as
  /// `QueryControl::cancel`; null = unrestricted. Shared so the front
  /// end can still cancel after handing the job off.
  std::shared_ptr<CancelToken> token;
};

/// \brief Index-aligned outcomes for a job's queries.
using QueryResponse = Result<std::vector<QueryOutcome>>;

/// \brief One admission-controlled task with its cancellation state.
struct WorkItem {
  /// Attributes the task in the per-document counts; "" = store-wide.
  std::string document;
  /// The task body; runs on a worker thread when the token is live.
  std::function<void()> run;
  /// Owed-reply path: runs (with the token's terminal status) instead
  /// of `run` when the task is dead at dequeue or shed from a full
  /// queue. Null = the task is silently dropped when dead.
  std::function<void(const Status&)> shed;
  /// Deadline / cancellation state; null = never expires or cancels.
  std::shared_ptr<CancelToken> token;
};

class QueryService {
 public:
  QueryService(DocumentStore* store, ServiceOptions options = {});

  /// Drains the queue and joins the workers.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admission-controlled enqueue: runs `item.run` on a worker thread,
  /// or returns false *without enqueueing* when the bounded queue is
  /// full. `item.document` attributes the task in the per-document
  /// queue counts (STATS `queued=`/`inflight=`). A dead item (expired
  /// or cancelled token) is shed instead of run, and a full queue sheds
  /// one already-dead queued task to admit this one before refusing.
  /// The shed callback of a displaced task runs on the submitting
  /// thread, after the queue lock is released. `run` owns its own
  /// completion delivery.
  bool TrySubmitWork(WorkItem item);

  /// Records a request that *executed* and failed with `kCancelled`
  /// (counted with the cancelled family and the document's STATS
  /// `cancelled=`) or `kDeadlineExceeded` (counted in
  /// `deadline_exceeded_total` only — it was not shed, it ran). Other
  /// codes are ignored, so handlers can call this on every error.
  void NoteRequestError(const std::string& document, StatusCode code);

  /// Evaluates `job` on the calling thread: what a submitted task runs
  /// on its worker, and the direct call for tests and embedders.
  QueryResponse Execute(const QueryJob& job);

  /// Jobs accepted so far (served + queued).
  uint64_t jobs_submitted() const;

  /// TrySubmitWork refusals so far (each one paused a connection; no
  /// request is ever dropped).
  uint64_t rejected() const;

  /// Tasks currently waiting in the queue (not yet picked by a worker).
  size_t queue_depth() const;

  /// The configured bound (0 = unbounded).
  size_t queue_limit() const { return options_.queue_depth; }

  /// Tasks currently executing on workers.
  size_t jobs_inflight() const;

  /// Queue introspection for one document: tasks waiting (`queued`) and
  /// executing (`inflight`) right now.
  void PendingForDocument(const std::string& document, uint64_t* queued,
                          uint64_t* inflight) const;

  /// Cumulative shed / cancelled request counts for one document (the
  /// STATS `shed=`/`cancelled=` fields). Never reset while the service
  /// lives, unlike the queued/inflight snapshot.
  void ShedForDocument(const std::string& document, uint64_t* shed,
                       uint64_t* cancelled) const;

  /// Requests shed (deadline already expired at dequeue / displacement).
  uint64_t shed_total() const;

  /// Requests cancelled (token cancelled while queued or in flight).
  uint64_t cancelled_total() const;

  size_t worker_count() const { return workers_.size(); }

 private:
  struct Pending {
    uint64_t queued = 0;
    uint64_t inflight = 0;
  };
  /// Cumulative per-document shed/cancelled counts; never erased.
  struct ShedCounts {
    uint64_t shed = 0;
    uint64_t cancelled = 0;
  };

  void WorkerLoop();
  /// Appends a task and refreshes the queue gauges; mu_ must be held.
  void EnqueueLocked(WorkItem task);
  /// Books one dead-at-dequeue task under the shed or cancelled family
  /// (by the status code) and drops its per-document queued count;
  /// mu_ must be held. The caller runs the shed callback after
  /// releasing mu_.
  void CountDeadLocked(const std::string& document, const Status& status);

  DocumentStore* store_;
  ServiceOptions options_;
  /// Resolved once; registered on the store's registry so the daemon's
  /// METRICS scrape carries the admission-control series.
  obs::Gauge* queue_depth_gauge_;
  obs::Gauge* queue_limit_gauge_;
  obs::Counter* rejections_total_;
  obs::Gauge* inflight_gauge_;
  obs::Counter* shed_counter_;
  obs::Counter* cancelled_counter_;
  obs::Counter* deadline_exceeded_counter_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<WorkItem> queue_;
  /// Per-document queued/in-flight counts; entries erased at zero.
  std::map<std::string, Pending> pending_;
  /// Per-document cumulative shed/cancelled counts (STATS); kept for
  /// the service's lifetime.
  std::map<std::string, ShedCounts> shed_counts_;
  size_t inflight_ = 0;
  bool stopping_ = false;
  uint64_t jobs_submitted_ = 0;
  uint64_t rejected_ = 0;
  uint64_t shed_total_ = 0;
  uint64_t cancelled_total_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace xcq::server

#endif  // XCQ_SERVER_QUERY_SERVICE_H_
