#ifndef XCQ_SERVER_TCP_SERVER_H_
#define XCQ_SERVER_TCP_SERVER_H_

/// \file tcp_server.h
/// `xcq_serverd`'s front end: a non-blocking **epoll event loop**
/// speaking the line protocol of protocol.h with pipelined requests.
///
/// One event-loop thread owns every socket: edge-triggered
/// accept/read/write, per-connection input framing (`LineFramer`) and a
/// coalescing output buffer. Requests are dispatched to the
/// `QueryService` worker pool through a `PipelinedHandler` per
/// connection — many requests from one socket may be in flight at once;
/// completions run on worker threads, format the reply bytes, and post
/// them back to the loop (eventfd wakeup), which reassembles them in
/// sequence order. Replies therefore always come back in request order.
///
/// Backpressure, outside-in:
///  * `max_connections` caps sockets; excess connects get one `ERR
///    ResourceExhausted` line and a close.
///  * Per-connection `max_inflight_per_connection` and the service's
///    bounded `queue_depth` gate dispatch; when either is exhausted the
///    parked request stays parked and the loop **stops reading that
///    socket** — kernel TCP backpressure stalls the client, nothing is
///    dropped or reordered — until a completion frees capacity.
///  * `write_high_watermark` bounds the output buffer of a slow reader
///    the same way: reads pause until the backlog flushes.
///  * `max_line_bytes` bounds input framing; an oversized request line
///    gets a canonical `ERR` and the connection closes (the stream
///    cannot be re-framed).
///
/// Timers: `idle_timeout_s` disconnects connections with no traffic and
/// nothing owed; `write_timeout_s` disconnects peers that stop draining
/// their replies. `Stop()` drains gracefully — in-flight requests are
/// answered and flushed (for at most 30 s), idle
/// connections close immediately.
///
/// All evaluation still happens in the worker pool, so the expensive,
/// memory-growing work stays capped at `worker_threads` regardless of
/// client count, and the loop thread never runs a query, a LOAD, an
/// EVICT, or a STATS/METRICS scrape (all of which can block on store or
/// document locks — an EVICT can even free a whole document). Only QUIT
/// and parse errors answer inline.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "xcq/server/document_store.h"
#include "xcq/server/protocol.h"
#include "xcq/server/query_service.h"
#include "xcq/util/result.h"

namespace xcq::server {

struct ServerOptions {
  /// Port to bind ("127.0.0.1"); 0 picks an ephemeral port (tests).
  uint16_t port = 7878;
  /// Bind address; the default keeps the daemon loopback-only.
  std::string bind_address = "127.0.0.1";
  /// Evaluation worker pool size.
  size_t worker_threads = 4;
  /// Document store capacity (0 = unlimited).
  size_t capacity_bytes = 0;
  /// Spill directory for durable documents (`--data-dir`); empty keeps
  /// the store memory-only.
  std::string data_dir;
  /// Session behaviour for every stored document.
  SessionOptions session;
  /// Per-query trace logging (`--trace=off|slow:<ms>|all`).
  TraceOptions trace;
  /// Concurrent-connection cap; 0 = unlimited (`--max-connections`).
  size_t max_connections = 0;
  /// Disconnect a connection with no traffic and nothing in flight
  /// after this many seconds; 0 = never (`--idle-timeout`).
  double idle_timeout_s = 0.0;
  /// Disconnect a peer whose pending replies make no write progress
  /// for this many seconds; 0 = never (`--write-timeout`).
  double write_timeout_s = 0.0;
  /// Bound on the QueryService submission queue (`--queue-depth`);
  /// 0 = unbounded. Full queue = stalled sockets, not errors.
  size_t queue_depth = 256;
  /// Outstanding requests allowed per connection before its reads stall.
  size_t max_inflight_per_connection = 32;
  /// Request-line length cap; longer lines answer a canonical ERR and
  /// close (the framing cannot recover).
  size_t max_line_bytes = kDefaultMaxLineBytes;
  /// Pause reading a connection whose unflushed output exceeds this
  /// (the slow-reader guard); resumes when the backlog flushes.
  size_t write_high_watermark = size_t{1} << 20;
  /// Deadline applied to QUERY/BATCH requests without a `TIMEOUT`
  /// clause (`--default-deadline-ms`); 0 = none. Expired requests
  /// answer `ERR DeadlineExceeded` — shed before evaluation when the
  /// deadline passed while queued.
  uint64_t default_deadline_ms = 0;
  /// Upper bound on BATCH bodies (`--max-batch`); larger headers answer
  /// a canonical `ERR InvalidArgument` without consuming body lines.
  size_t max_batch = 100000;
};

class TcpServer {
 public:
  explicit TcpServer(ServerOptions options = {});

  /// Stops and joins everything still running.
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and spawns the event-loop thread. After an OK
  /// return, `port()` is the actually-bound port.
  Status Start();

  /// Graceful drain: stops accepting, closes idle connections
  /// immediately, answers and flushes everything in flight (for at most
  /// 30 s), then joins the loop. Idempotent; also run by
  /// the destructor.
  void Stop();

  uint16_t port() const { return port_; }

  DocumentStore& store() { return store_; }
  QueryService& service() { return service_; }

  /// Connections accepted (admitted, not rejected) so far.
  uint64_t connections_accepted() const { return connections_accepted_; }

 private:
  /// A reply formatted by a worker, waiting for the loop to flush it.
  struct Completion {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    std::string bytes;
    bool close_after = false;
  };

  struct Conn;

  void EventLoop();
  void AcceptNew();
  void ReadFromConn(Conn* conn);
  /// Pulls framed lines out of the connection's buffer into the
  /// handler until it needs more bytes, stalls, or closes.
  void ProcessInput(Conn* conn);
  void HandleEof(Conn* conn);
  /// Moves ready in-sequence replies to the output buffer and writes.
  /// False when the connection was closed.
  bool FlushConn(Conn* conn);
  /// Sends the output buffer. False when the connection was closed —
  /// including by the nested read-resume after a write stall — in which
  /// case `conn` has been freed and must not be touched again.
  bool WriteOut(Conn* conn);
  void DrainCompletions();
  /// Re-tries parked requests after completions freed capacity.
  void RetryStalled();
  void CheckTimers();
  /// First Stop() observation: close the listener, close idle conns.
  void BeginDrain();
  /// Closes conns that owe nothing; true when none remain.
  bool DrainStep();
  void UpdateEvents(Conn* conn);
  void CloseConn(uint64_t id);
  void PostCompletion(Completion completion);
  void WakeLoop();
  /// True when the connection owes the client nothing.
  static bool ConnFinished(const Conn& conn);

  ServerOptions options_;
  DocumentStore store_;

  /// Completion plumbing, shared with worker threads. Declared before
  /// `service_`: its destructor joins workers whose closures still post
  /// completions, so this must outlive it.
  std::mutex completion_mu_;
  std::vector<Completion> completions_;
  int event_fd_ = -1;  ///< Guarded by completion_mu_ for write/close.

  QueryService service_;

  /// Front-end metric handles, resolved once in the constructor.
  obs::Gauge* connections_gauge_;
  obs::Counter* connections_total_;
  obs::Counter* rejected_total_;
  obs::Gauge* stalled_gauge_;
  obs::Counter* stalls_total_;
  obs::Counter* idle_disconnects_total_;
  obs::Counter* write_timeouts_total_;
  obs::Counter* pipelined_requests_total_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> connections_accepted_{0};
  std::thread loop_thread_;

  /// Everything below is owned by the event-loop thread.
  std::map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 2;  ///< 0 = listener, 1 = eventfd.
  /// Accept4 failed transiently (EMFILE-class): the edge-triggered
  /// listener will not re-fire for already-queued connections, so the
  /// loop re-runs AcceptNew on a short timeout until the backlog drains.
  bool accept_retry_ = false;
  bool draining_ = false;
  std::chrono::steady_clock::time_point drain_deadline_{};
};

}  // namespace xcq::server

#endif  // XCQ_SERVER_TCP_SERVER_H_
