#ifndef XCQ_SERVEBENCH_SOCKET_RUN_H_
#define XCQ_SERVEBENCH_SOCKET_RUN_H_

/// \file socket_run.h
/// The client side of bench_serve: a non-blocking loopback connection
/// that one thread drives, and the server start-up both runs share.

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve_bench.h"

namespace xcq::servebench {

/// One client connection: queued request bytes out, framed replies in.
/// Replies arrive in request order (the server's pipelining contract),
/// so the connection only needs to know which requests answer `OK <n>`
/// plus n lines.
class Conn {
 public:
  using ReplyFn = std::function<void(std::vector<std::string>& lines)>;

  /// Connects to 127.0.0.1:`port`, non-blocking, TCP_NODELAY.
  static Result<std::unique_ptr<Conn>> Dial(uint16_t port);
  ~Conn();

  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }
  bool has_output() const { return sent_ < out_.size(); }

  /// Queues one request; `multi_line` when it answers `OK <n>` + n lines.
  void Queue(std::string_view bytes, bool multi_line);

  /// Writes queued bytes until the socket would block; false on error.
  bool Flush();

  /// Reads until the socket would block, handing each complete reply to
  /// `on_reply`. False on error, end of stream, or a reply to nothing.
  bool Receive(const ReplyFn& on_reply);

 private:
  explicit Conn(int fd) : fd_(fd) {}

  int fd_;
  std::string out_;
  size_t sent_ = 0;
  std::string in_;
  size_t consumed_ = 0;
  std::deque<bool> expect_multi_;
  std::vector<std::string> reply_;
  uint64_t owed_ = 0;  ///< Detail lines the reply being read still owes.
};

/// Round trips over one connection, for set-up and warm-up.
class SocketCaller : public Caller {
 public:
  explicit SocketCaller(Conn* conn) : conn_(conn) {}
  Result<std::vector<std::string>> Call(const std::string& bytes,
                                        bool multi_line) override;

 private:
  Conn* conn_;
};

/// The real TcpServer with the daemon's defaults, started on an
/// ephemeral loopback port, every document LOADed and warmed.
Result<std::unique_ptr<server::TcpServer>> StartServer(
    const Workload& workload, const std::map<std::string, Corpus>& corpora,
    const std::string& data_dir);

/// Drives `conn` for `seconds` from the calling thread, one request at a
/// time, into `recorder`; one lateness sample per request after the
/// first goes to `send_lag_ms`.
Status DriveSocket(const Workload& workload, RequestStream* stream,
                   const QueryTable& table, Conn* conn, double seconds,
                   Recorder* recorder, std::vector<double>* send_lag_ms);

}  // namespace xcq::servebench

#endif  // XCQ_SERVEBENCH_SOCKET_RUN_H_
