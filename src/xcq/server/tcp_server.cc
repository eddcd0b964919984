#include "xcq/server/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "xcq/util/string_util.h"

namespace xcq::server {

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kListenerId = 0;
constexpr uint64_t kEventFdId = 1;

/// Graceful-shutdown bound: `Stop()` force-closes connections still
/// owing replies this long after the drain began.
constexpr std::chrono::seconds kDrainTimeout{30};

/// One best-effort blocking-ish send for the pre-admission rejection
/// line; the socket is non-blocking, so a full buffer just drops it.
void SendBestEffort(int fd, std::string_view data) {
  (void)::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
}

}  // namespace

/// Per-connection state, owned by the event-loop thread. Reply bytes
/// cross threads only through the completion queue; everything here is
/// loop-local.
struct TcpServer::Conn {
  int fd = -1;
  uint64_t id = 0;
  LineFramer framer;
  std::shared_ptr<PipelinedHandler> handler;

  /// Coalescing output: every in-sequence reply appends here; one
  /// writev-style send loop drains it. `out_pos` avoids a memmove per
  /// partial write.
  std::string out;
  size_t out_pos = 0;
  /// Out-of-order completions waiting for their turn (seq → reply).
  std::map<uint64_t, Completion> ready;
  uint64_t next_flush = 0;

  uint32_t events = 0;       ///< Last epoll mask registered.
  bool want_write = false;   ///< send() hit EAGAIN; waiting for EPOLLOUT.
  bool stalled_queue = false;  ///< Parked request (admission refused).
  bool stalled_write = false;  ///< Output backlog over the watermark.
  bool read_closed = false;    ///< EOF seen / QUIT / fatal framing.
  bool closing = false;        ///< Close once the output drains.
  bool eof_pending = false;    ///< EOF seen while a request was parked.

  Clock::time_point last_activity;
  Clock::time_point last_write_progress;

  explicit Conn(size_t max_line_bytes) : framer(max_line_bytes) {}

  bool stalled() const { return stalled_queue || stalled_write; }
  size_t unflushed() const { return out.size() - out_pos; }
};

bool TcpServer::ConnFinished(const Conn& conn) {
  return conn.handler->dispatched() == conn.next_flush &&
         conn.ready.empty() && conn.unflushed() == 0 &&
         !conn.handler->has_deferred();
}

TcpServer::TcpServer(ServerOptions options)
    : options_(std::move(options)),
      store_(StoreOptions{options_.capacity_bytes, options_.session,
                          options_.trace, options_.data_dir}),
      service_(&store_,
               ServiceOptions{options_.worker_threads, options_.queue_depth}) {
  obs::Registry* registry = store_.registry();
  connections_gauge_ = registry->GetGauge("xcq_server_connections", {},
                                          "Open client connections");
  connections_total_ = registry->GetCounter("xcq_server_connections_total", {},
                                            "Connections accepted");
  rejected_total_ = registry->GetCounter(
      "xcq_server_connections_rejected_total", {},
      "Connections refused by the --max-connections cap");
  stalled_gauge_ = registry->GetGauge(
      "xcq_server_stalled_connections", {},
      "Connections whose reads are paused by backpressure");
  stalls_total_ = registry->GetCounter(
      "xcq_server_stalls_total", {},
      "Times a connection's reads were paused (queue full, in-flight "
      "limit, or output backlog)");
  idle_disconnects_total_ = registry->GetCounter(
      "xcq_server_idle_disconnects_total", {},
      "Connections closed by --idle-timeout");
  write_timeouts_total_ = registry->GetCounter(
      "xcq_server_write_timeouts_total", {},
      "Connections closed by --write-timeout (peer stopped reading)");
  pipelined_requests_total_ = registry->GetCounter(
      "xcq_server_pipelined_requests_total", {},
      "Requests dispatched by the pipelined front end");
}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  if (listen_fd_ >= 0) {
    return Status::AlreadyExists("server already started");
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError(StrFormat("socket: %s", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument(
        StrFormat("bad bind address '%s'", options_.bind_address.c_str()));
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status =
        Status::IoError(StrFormat("bind %s:%u: %s",
                                  options_.bind_address.c_str(),
                                  static_cast<unsigned>(options_.port),
                                  std::strerror(errno)));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 256) < 0) {
    const Status status =
        Status::IoError(StrFormat("listen: %s", std::strerror(errno)));
    ::close(fd);
    return status;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = options_.port;
  }

  const int epfd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd < 0) {
    ::close(fd);
    return Status::IoError(
        StrFormat("epoll_create1: %s", std::strerror(errno)));
  }
  const int efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (efd < 0) {
    ::close(fd);
    ::close(epfd);
    return Status::IoError(StrFormat("eventfd: %s", std::strerror(errno)));
  }

  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kListenerId;
  ::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev);
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kEventFdId;
  ::epoll_ctl(epfd, EPOLL_CTL_ADD, efd, &ev);

  listen_fd_ = fd;
  epoll_fd_ = epfd;
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    event_fd_ = efd;
  }
  stopping_ = false;
  draining_ = false;
  loop_thread_ = std::thread([this] { EventLoop(); });
  return Status::OK();
}

void TcpServer::Stop() {
  stopping_ = true;
  WakeLoop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // The loop closed every connection and the listener on its way out;
  // reclaim whatever is left so Start() can run again.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    if (event_fd_ >= 0) {
      ::close(event_fd_);
      event_fd_ = -1;
    }
  }
  // Graceful stop: every in-flight request has been answered, so the
  // residents' label sets are final — write any dirty spills now. A
  // hard stop (SIGKILL) skips this and recovery still works; the flush
  // just captures labels learned since the last per-query spill.
  store_.FlushSpills();
}

void TcpServer::WakeLoop() {
  std::lock_guard<std::mutex> lock(completion_mu_);
  if (event_fd_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(event_fd_, &one, sizeof(one));
  }
}

void TcpServer::PostCompletion(Completion completion) {
  std::lock_guard<std::mutex> lock(completion_mu_);
  completions_.push_back(std::move(completion));
  if (event_fd_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(event_fd_, &one, sizeof(one));
  }
}

void TcpServer::EventLoop() {
  epoll_event events[64];
  while (true) {
    if (stopping_ && !draining_) BeginDrain();
    if (draining_ && DrainStep()) break;

    int timeout_ms = -1;
    if (draining_) {
      timeout_ms = 10;
    } else if (options_.idle_timeout_s > 0 || options_.write_timeout_s > 0) {
      timeout_ms = 50;
    }
    if (accept_retry_ && (timeout_ms < 0 || timeout_ms > 50)) {
      timeout_ms = 50;  // a failed accept must be retried without an edge
    }
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — unrecoverable
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      const uint32_t mask = events[i].events;
      if (id == kListenerId) {
        AcceptNew();
        continue;
      }
      if (id == kEventFdId) {
        uint64_t drained;
        while (::read(event_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      const auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // closed earlier this round
      Conn* conn = it->second.get();
      if ((mask & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConn(id);
        continue;
      }
      if ((mask & EPOLLOUT) != 0) {
        if (!WriteOut(conn)) continue;
      }
      if ((mask & (EPOLLIN | EPOLLRDHUP)) != 0) {
        ReadFromConn(conn);
      }
    }
    // Retry a backlog stalled on descriptor pressure: events handled
    // above may have freed fds, and no new listener edge will fire for
    // connections that were already queued when accept4 failed.
    if (accept_retry_ && !draining_) AcceptNew();
    DrainCompletions();
    CheckTimers();
  }

  // Loop exit: every connection is gone (DrainStep) — release the
  // listener so the port frees immediately.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TcpServer::AcceptNew() {
  accept_retry_ = false;
  while (true) {
    const int cfd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // drained
      // EMFILE/ENFILE/ENOBUFS/ENOMEM: transient descriptor pressure.
      // The listener is edge-triggered, so connections already queued
      // in the accept backlog would hang until a *fresh* SYN produced
      // another edge — arm a short-timeout retry in the event loop
      // instead of spinning here.
      accept_retry_ = true;
      return;
    }
    if (draining_) {
      ::close(cfd);
      continue;
    }
    if (options_.max_connections > 0 &&
        conns_.size() >= options_.max_connections) {
      // Count before the close: a client may observe the EOF the
      // instant close() runs, and the metric should already agree.
      rejected_total_->Increment();
      SendBestEffort(cfd,
                     FormatError(Status::ResourceExhausted(StrFormat(
                         "connection limit (%zu) reached",
                         options_.max_connections))) +
                         "\n");
      ::close(cfd);
      continue;
    }

    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>(options_.max_line_bytes);
    conn->fd = cfd;
    conn->id = id;
    conn->last_activity = Clock::now();
    conn->last_write_progress = conn->last_activity;
    conn->handler = std::make_shared<PipelinedHandler>(
        &store_, &service_,
        [this, id](uint64_t seq, std::string bytes, bool close_after) {
          PostCompletion(Completion{id, seq, std::move(bytes), close_after});
        },
        HandlerOptions{options_.max_inflight_per_connection,
                       options_.default_deadline_ms, options_.max_batch,
                       pipelined_requests_total_});

    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, cfd, &ev) < 0) {
      ::close(cfd);
      continue;
    }
    conn->events = ev.events;
    conns_[id] = std::move(conn);
    ++connections_accepted_;
    connections_total_->Increment();
    connections_gauge_->Set(static_cast<double>(conns_.size()));
  }
}

void TcpServer::UpdateEvents(Conn* conn) {
  uint32_t desired = EPOLLRDHUP | EPOLLET;
  if (!conn->read_closed && !conn->stalled() && !draining_) {
    desired |= EPOLLIN;
  }
  if (conn->want_write) desired |= EPOLLOUT;
  if (desired == conn->events) return;
  epoll_event ev{};
  ev.events = desired;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    conn->events = desired;
  }
}

void TcpServer::ReadFromConn(Conn* conn) {
  char buf[64 * 1024];
  while (!conn->read_closed && !conn->stalled()) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->last_activity = Clock::now();
      conn->framer.Append(std::string_view(buf, static_cast<size_t>(n)));
      ProcessInput(conn);
      continue;
    }
    if (n == 0) {
      HandleEof(conn);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(conn->id);
    return;
  }
  UpdateEvents(conn);
}

void TcpServer::ProcessInput(Conn* conn) {
  std::string line;
  while (!conn->read_closed && !conn->stalled()) {
    // Slow-reader guard: stop parsing (and reading) while the peer's
    // unread replies exceed the watermark; WriteOut resumes us.
    if (conn->unflushed() > options_.write_high_watermark) {
      conn->stalled_write = true;
      stalls_total_->Increment();
      stalled_gauge_->Add(1);
      break;
    }
    const LineFramer::Next next = conn->framer.NextLine(&line);
    if (next == LineFramer::Next::kNeedMore) break;
    if (next == LineFramer::Next::kOverflow) {
      conn->handler->FeedOversized(conn->framer.max_line_bytes());
      conn->read_closed = true;
      ::shutdown(conn->fd, SHUT_RD);
      break;
    }
    const PipelinedHandler::FeedResult result = conn->handler->Feed(line);
    if (result == PipelinedHandler::FeedResult::kStalled) {
      conn->stalled_queue = true;
      stalls_total_->Increment();
      stalled_gauge_->Add(1);
      break;
    }
    if (result == PipelinedHandler::FeedResult::kClose) {
      conn->read_closed = true;
      ::shutdown(conn->fd, SHUT_RD);
      break;
    }
  }
  UpdateEvents(conn);
}

void TcpServer::HandleEof(Conn* conn) {
  conn->read_closed = true;
  std::string residual;
  if (conn->framer.TakeResidual(&residual) && !Trim(residual).empty()) {
    // A final unterminated line is a line: feed it; if it parks,
    // remember the EOF for after it runs.
    const PipelinedHandler::FeedResult result = conn->handler->Feed(residual);
    if (result == PipelinedHandler::FeedResult::kStalled) {
      conn->stalled_queue = true;
      stalls_total_->Increment();
      stalled_gauge_->Add(1);
      conn->eof_pending = true;
      UpdateEvents(conn);
      return;
    }
  }
  conn->handler->OnInputClosed();
  UpdateEvents(conn);
}

bool TcpServer::FlushConn(Conn* conn) {
  while (true) {
    const auto it = conn->ready.find(conn->next_flush);
    if (it == conn->ready.end()) break;
    conn->out.append(it->second.bytes);
    if (it->second.close_after) conn->closing = true;
    conn->ready.erase(it);
    ++conn->next_flush;
  }
  return WriteOut(conn);
}

bool TcpServer::WriteOut(Conn* conn) {
  while (conn->out_pos < conn->out.size()) {
    const ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_pos,
                             conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
    if (n >= 0) {
      conn->out_pos += static_cast<size_t>(n);
      conn->last_write_progress = Clock::now();
      conn->last_activity = conn->last_write_progress;
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!conn->want_write) {
        conn->want_write = true;
        UpdateEvents(conn);
      }
      return true;
    }
    CloseConn(conn->id);
    return false;
  }
  conn->out.clear();
  conn->out_pos = 0;
  if (conn->want_write) {
    conn->want_write = false;
    UpdateEvents(conn);
  }
  if (conn->closing) {
    CloseConn(conn->id);
    return false;
  }
  if (conn->stalled_write) {
    // Backlog drained: resume parsing buffered frames, then the socket
    // (edge-triggered reads need the manual retry — no new edge will
    // fire for bytes that already arrived).
    const uint64_t id = conn->id;
    conn->stalled_write = false;
    stalled_gauge_->Add(-1);
    ProcessInput(conn);
    if (!conn->read_closed && !conn->stalled()) {
      ReadFromConn(conn);
      // The nested read may have hit a hard recv error and closed —
      // freed — the connection. Report that, so no caller (e.g. the
      // event loop handling the EPOLLIN bit of the same event mask)
      // touches `conn` again.
      if (conns_.find(id) == conns_.end()) return false;
    }
  }
  return true;
}

void TcpServer::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    batch.swap(completions_);
  }
  if (batch.empty()) return;
  for (Completion& completion : batch) {
    const auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) continue;  // connection already gone
    const uint64_t seq = completion.seq;
    it->second->ready.emplace(seq, std::move(completion));
  }
  // Flush after grouping so one conn's pipelined replies coalesce into
  // one send. Look conns up again: a flush can close its connection.
  std::vector<uint64_t> touched;
  touched.reserve(batch.size());
  for (const Completion& completion : batch) {
    touched.push_back(completion.conn_id);
  }
  for (const uint64_t id : touched) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    FlushConn(it->second.get());
  }
  RetryStalled();
}

void TcpServer::RetryStalled() {
  std::vector<uint64_t> stalled_ids;
  for (const auto& [id, conn] : conns_) {
    if (conn->stalled_queue) stalled_ids.push_back(id);
  }
  for (const uint64_t id : stalled_ids) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Conn* conn = it->second.get();
    const PipelinedHandler::FeedResult result =
        conn->handler->ResumeDeferred();
    if (result == PipelinedHandler::FeedResult::kStalled) continue;
    conn->stalled_queue = false;
    stalled_gauge_->Add(-1);
    if (conn->eof_pending) {
      conn->eof_pending = false;
      conn->handler->OnInputClosed();
      UpdateEvents(conn);
      continue;
    }
    if (!conn->read_closed) {
      ProcessInput(conn);
      if (!conn->read_closed && !conn->stalled()) ReadFromConn(conn);
    } else {
      UpdateEvents(conn);
    }
  }
}

void TcpServer::CheckTimers() {
  if (options_.idle_timeout_s <= 0 && options_.write_timeout_s <= 0) return;
  const Clock::time_point now = Clock::now();
  std::vector<uint64_t> idle_ids;
  std::vector<uint64_t> stuck_ids;
  for (const auto& [id, conn] : conns_) {
    if (options_.idle_timeout_s > 0 && ConnFinished(*conn)) {
      const double idle =
          std::chrono::duration<double>(now - conn->last_activity).count();
      if (idle > options_.idle_timeout_s) {
        idle_ids.push_back(id);
        continue;
      }
    }
    if (options_.write_timeout_s > 0 && conn->unflushed() > 0) {
      const double blocked =
          std::chrono::duration<double>(now - conn->last_write_progress)
              .count();
      if (blocked > options_.write_timeout_s) stuck_ids.push_back(id);
    }
  }
  for (const uint64_t id : idle_ids) {
    idle_disconnects_total_->Increment();
    CloseConn(id);
  }
  for (const uint64_t id : stuck_ids) {
    write_timeouts_total_->Increment();
    CloseConn(id);
  }
}

void TcpServer::BeginDrain() {
  draining_ = true;
  accept_retry_ = false;
  drain_deadline_ = Clock::now() + kDrainTimeout;
  // Stop accepting immediately; pending replies still flush below.
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (const auto& [id, conn] : conns_) {
    UpdateEvents(conn.get());  // draining_ masks EPOLLIN off
  }
}

bool TcpServer::DrainStep() {
  // Close everything that owes the client nothing; force-close the
  // rest once the deadline passes.
  const bool expired = Clock::now() >= drain_deadline_;
  std::vector<uint64_t> close_ids;
  for (const auto& [id, conn] : conns_) {
    if (expired || ConnFinished(*conn)) close_ids.push_back(id);
  }
  for (const uint64_t id : close_ids) CloseConn(id);
  return conns_.empty();
}

void TcpServer::CloseConn(uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();
  // The client is gone, so nothing it still has queued or in flight is
  // worth evaluating: cancel it all. Queued tasks are shed at dequeue;
  // running evaluations abort at their next checkpoint. Their replies
  // still post completions for this id, which DrainCompletions already
  // tolerates for closed connections.
  if (conn->handler != nullptr) conn->handler->CancelOutstanding();
  if (conn->stalled()) stalled_gauge_->Add(-1);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(it);
  connections_gauge_->Set(static_cast<double>(conns_.size()));
}

}  // namespace xcq::server
