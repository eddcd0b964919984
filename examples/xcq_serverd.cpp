// xcq_serverd — the query daemon: a long-lived process serving Core
// XPath queries over cached compressed instances, on TCP.
//
//   ./build/examples/xcq_serverd [options]
//
// Options:
//   --port=N            port to bind on 127.0.0.1 (default 7878; 0 =
//                       ephemeral, printed on startup)
//   --threads=N         evaluation worker pool size (default 4); each
//                       request runs on one worker, single-threaded
//   --capacity-mb=N     document store budget; past it the least-
//                       recently-used document is evicted (default
//                       unlimited)
//   --preload=NAME=PATH cache a document before serving; PATH may be a
//                       .xcqi instance file or raw XML (sniffed).
//                       Repeatable.
//   --minimize          reclaim instance growth after splitting queries
//                       with one in-place minimization pass per query
//                       (see docs/INTERNALS.md §5); --minimize=off (the
//                       default) leaves instances grown.
//   --trace=MODE        per-query phase-trace logging to stderr, one
//                       JSON line per traced query
//                       (docs/OBSERVABILITY.md): off (default), all
//                       traces every query, slow:<ms> only queries
//                       slower than <ms> milliseconds end to end.
//   --max-connections=N cap on concurrent client connections; excess
//                       connects get one `ERR ResourceExhausted` line
//                       and a close (default 0 = unlimited)
//   --idle-timeout=SEC  disconnect clients with no traffic and nothing
//                       in flight after SEC seconds (default 0 = never)
//   --write-timeout=SEC disconnect clients whose pending replies make
//                       no write progress for SEC seconds (default 0 =
//                       never)
//   --queue-depth=N     bound on the evaluation submission queue; a
//                       full queue pauses socket reads (backpressure)
//                       instead of erroring (default 256; 0 = unbounded)
//   --default-deadline-ms=N
//                       deadline applied to every QUERY/BATCH without
//                       an explicit TIMEOUT clause; a request that
//                       misses it answers `ERR DeadlineExceeded`, and a
//                       request whose deadline passes while queued is
//                       shed without being evaluated (default 0 = none)
//   --max-batch=N       cap on BATCH body sizes, 1..100000; a header
//                       announcing more queries answers
//                       `ERR InvalidArgument` without consuming the body
//                       (default 100000)
//   --data-dir=PATH     spill directory for durable documents: every
//                       loaded document is persisted there as one
//                       checksummed <escaped-name>.xcqi file (the
//                       directory is the catalog) and a restart with the
//                       same directory answers queries without
//                       re-LOADing (docs/SERVER.md §Persistence). A data
//                       dir of the older MANIFEST layout starts cold:
//                       LOAD the documents again. Every spill found at
//                       startup is a warm document. Default: off,
//                       memory-only.
//
// Protocol (line-oriented; try it with `nc 127.0.0.1 7878`):
//
//   LOAD bib bib.xcqi
//   QUERY bib //paper/author
//   BATCH bib 2
//   //book[author["Vianu"]]
//   //paper/title
//   STATS
//   EVICT bib
//   QUIT
//
// Numeric options take a whole decimal integer within the option's
// range; anything else (`--queue-depth=1k`, `--port=70000`) prints
// `bad --<option>: ...` and exits 2. The seconds options
// (`--idle-timeout`, `--write-timeout`) and the `--trace=slow:`
// threshold take a whole finite decimal number >= 0 under the same
// rule (`nan`, `inf` and `5x` are refused).
//
// See docs/SERVER.md for the full protocol and threading model.

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "xcq/api.h"
#include "xcq/util/string_util.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port=N] [--threads=N] "
               "[--capacity-mb=N] [--preload=NAME=PATH]... "
               "[--minimize[=off]] "
               "[--trace=off|slow:<ms>|all] "
               "[--max-connections=N] [--idle-timeout=SEC] "
               "[--write-timeout=SEC] [--queue-depth=N] "
               "[--default-deadline-ms=N] [--max-batch=N] "
               "[--data-dir=PATH]\n",
               argv0);
  return 2;
}

/// True when `arg` is `--<flag>=...`.
bool HasFlag(std::string_view arg, std::string_view flag) {
  return arg.size() > flag.size() + 2 && arg.substr(0, 2) == "--" &&
         arg.substr(2, flag.size()) == flag && arg[flag.size() + 2] == '=';
}

/// The value of `--<flag>=<value>` as a decimal integer in [min, max].
/// The whole value must parse; on an empty value, a sign, trailing
/// characters, overflow or a value out of range this prints
/// `bad --<flag>: <arg>` and exits 2.
uint64_t ParseCount(std::string_view arg, std::string_view flag,
                    uint64_t min, uint64_t max) {
  const std::string_view value = arg.substr(flag.size() + 3);
  uint64_t n = 0;
  const auto [end, ec] =
      std::from_chars(value.data(), value.data() + value.size(), n);
  if (value.empty() || ec != std::errc() ||
      end != value.data() + value.size() || n < min || n > max) {
    std::fprintf(stderr, "bad --%.*s: %.*s\n", static_cast<int>(flag.size()),
                 flag.data(), static_cast<int>(arg.size()), arg.data());
    std::exit(2);
  }
  return n;
}

/// `value` (the part of `arg` after the flag's prefix) as a finite
/// decimal number >= 0: seconds for the timeouts, milliseconds for
/// `--trace=slow:`. The whole value must parse; on an empty value,
/// trailing characters, `nan`, `inf` or a negative value this prints
/// `bad --<flag>: <arg>` and exits 2.
double ParseSeconds(std::string_view arg, std::string_view flag,
                    std::string_view value) {
  double x = 0.0;
  const auto [end, ec] =
      std::from_chars(value.data(), value.data() + value.size(), x);
  if (value.empty() || ec != std::errc() ||
      end != value.data() + value.size() || !std::isfinite(x) || x < 0) {
    std::fprintf(stderr, "bad --%.*s: %.*s\n", static_cast<int>(flag.size()),
                 flag.data(), static_cast<int>(arg.size()), arg.data());
    std::exit(2);
  }
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  xcq::server::ServerOptions options;
  std::vector<std::pair<std::string, std::string>> preloads;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (HasFlag(arg, "port")) {
      options.port =
          static_cast<uint16_t>(ParseCount(arg, "port", 0, UINT16_MAX));
    } else if (HasFlag(arg, "threads")) {
      options.worker_threads = ParseCount(arg, "threads", 1, 1024);
    } else if (HasFlag(arg, "capacity-mb")) {
      options.capacity_bytes =
          ParseCount(arg, "capacity-mb", 0, SIZE_MAX >> 20) << 20;
    } else if (HasFlag(arg, "max-connections")) {
      options.max_connections =
          ParseCount(arg, "max-connections", 0, SIZE_MAX);
    } else if (arg.rfind("--idle-timeout=", 0) == 0) {
      options.idle_timeout_s =
          ParseSeconds(arg, "idle-timeout", arg.substr(15));
    } else if (arg.rfind("--write-timeout=", 0) == 0) {
      options.write_timeout_s =
          ParseSeconds(arg, "write-timeout", arg.substr(16));
    } else if (HasFlag(arg, "queue-depth")) {
      options.queue_depth = ParseCount(arg, "queue-depth", 0, SIZE_MAX);
    } else if (HasFlag(arg, "default-deadline-ms")) {
      // Same one-hour cap as a request's TIMEOUT clause.
      options.default_deadline_ms =
          ParseCount(arg, "default-deadline-ms", 0, 3600000);
    } else if (HasFlag(arg, "max-batch")) {
      // The protocol parser never accepts more than 100000 queries.
      options.max_batch = ParseCount(arg, "max-batch", 1, 100000);
    } else if (arg.rfind("--data-dir=", 0) == 0) {
      options.data_dir = std::string(arg.substr(11));
      if (options.data_dir.empty()) {
        std::fprintf(stderr, "bad --data-dir: %s\n", argv[i]);
        return 2;
      }
    } else if (arg.rfind("--preload=", 0) == 0) {
      const std::string_view spec = arg.substr(10);
      const size_t eq = spec.find('=');
      if (eq == std::string_view::npos || eq == 0 ||
          eq + 1 == spec.size()) {
        std::fprintf(stderr, "bad --preload spec: %s\n", argv[i]);
        return 2;
      }
      preloads.emplace_back(std::string(spec.substr(0, eq)),
                            std::string(spec.substr(eq + 1)));
    } else if (arg == "--minimize") {
      options.session.minimize_after_query = true;
    } else if (arg == "--minimize=off") {
      options.session.minimize_after_query = false;
    } else if (arg == "--trace=off") {
      options.trace.mode = xcq::server::TraceOptions::Mode::kOff;
    } else if (arg == "--trace=all") {
      options.trace.mode = xcq::server::TraceOptions::Mode::kAll;
    } else if (arg.rfind("--trace=slow:", 0) == 0) {
      const double ms = ParseSeconds(arg, "trace", arg.substr(13));
      options.trace.mode = xcq::server::TraceOptions::Mode::kSlow;
      options.trace.slow_threshold_s = ms / 1e3;
    } else if (arg == "--help" || arg == "-h") {
      return Usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return Usage(argv[0]);
    }
  }

  xcq::server::TcpServer server(options);
  if (!options.data_dir.empty()) {
    const xcq::Status durable = server.store().durability_status();
    if (!durable.ok()) {
      // An explicitly requested data dir that cannot be used is a
      // configuration error, not something to silently run without.
      std::fprintf(stderr, "--data-dir=%s unusable: %s\n",
                   options.data_dir.c_str(), durable.ToString().c_str());
      return 1;
    }
    const xcq::server::RecoveryStats& recovery =
        server.store().recovery_stats();
    std::printf("data dir %s: recovered %zu warm document(s)%s in %.3fs\n",
                options.data_dir.c_str(), recovery.recovered,
                recovery.errors == 0
                    ? ""
                    : xcq::StrFormat(" (%zu entr%s skipped)", recovery.errors,
                                     recovery.errors == 1 ? "y" : "ies")
                          .c_str(),
                recovery.seconds);
  }
  for (const auto& [name, path] : preloads) {
    const xcq::Status status = server.store().LoadFile(name, path);
    if (!status.ok()) {
      std::fprintf(stderr, "preload %s from %s failed: %s\n", name.c_str(),
                   path.c_str(), status.ToString().c_str());
      return 1;
    }
    std::printf("preloaded '%s' from %s\n", name.c_str(), path.c_str());
  }

  const xcq::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("xcq_serverd listening on 127.0.0.1:%u (%zu workers%s)\n",
              static_cast<unsigned>(server.port()),
              server.service().worker_count(),
              options.capacity_bytes == 0
                  ? ""
                  : xcq::StrFormat(", capacity %s",
                                   xcq::HumanBytes(options.capacity_bytes)
                                       .c_str())
                        .c_str());
  std::fflush(stdout);

  // Block the shutdown signals, then atomically unblock-and-wait with
  // sigsuspend: a plain `while (!g_stop) pause()` loses a signal that
  // lands between the check and the pause and never wakes up.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  sigset_t previous;
  sigprocmask(SIG_BLOCK, &mask, &previous);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  sigset_t wait_mask = previous;
  sigdelset(&wait_mask, SIGINT);
  sigdelset(&wait_mask, SIGTERM);
  while (!g_stop) {
    sigsuspend(&wait_mask);
  }
  sigprocmask(SIG_SETMASK, &previous, nullptr);
  std::printf("shutting down after %llu connection(s)\n",
              static_cast<unsigned long long>(server.connections_accepted()));
  server.Stop();
  return 0;
}
