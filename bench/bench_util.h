#ifndef XCQ_BENCH_BENCH_UTIL_H_
#define XCQ_BENCH_BENCH_UTIL_H_

/// \file bench_util.h
/// Shared plumbing for the table-reproduction benchmark binaries.
///
/// Every binary accepts:
///   --scale=<float>   multiplier on each corpus' default node budget
///                     (default 1.0; the defaults are a laptop-scale
///                     fraction of the paper's corpora — see
///                     docs/BENCHMARKS.md)
///   --seed=<uint>     generator seed (default 42)
///   --corpus=<name>   restrict to one corpus where applicable
///
/// Output convention: plain-text tables with the same columns as the
/// paper's figure (so docs/BENCHMARKS.md can cite rows verbatim), plus a
/// machine-readable BENCH_<name>.json written to the working directory
/// via BenchReport — the perf-trajectory record compared across PRs.
/// Each file names the host it came from (`host`: core count, compiler,
/// build type, commit); bench/CMakeLists.txt defines the last three.
///
/// Timing convention: every measurement in a bench goes through
/// `xcq::Timer` / `xcq::ScopedTimer` (util/timer.h) — the same steady
/// clock the engine's EvalStats, the session's phase timing, and the
/// obs trace spans use. Do not hand-roll `std::chrono` stopwatches
/// here; one clock path keeps bench numbers, STATS fields, and METRICS
/// series directly comparable.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "xcq/api.h"
#include "xcq/util/string_util.h"

namespace xcq::bench {

struct BenchArgs {
  double scale = 1.0;
  uint64_t seed = 42;
  std::string corpus;  // empty = all

  /// Parses the flags above. `--help` prints the usage line and exits
  /// 0; an unknown flag or a malformed value (`--scale=abc`,
  /// `--scale=0`, `--seed=x`) prints it to stderr and exits 2.
  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    const auto usage = [&](std::FILE* out, int code) {
      std::fprintf(out, "usage: %s [--scale=F] [--seed=N] [--corpus=NAME]\n",
                   argv[0]);
      std::exit(code);
    };
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg.rfind("--scale=", 0) == 0) {
        const char* value = argv[i] + 8;
        char* end = nullptr;
        args.scale = std::strtod(value, &end);
        if (end == value || *end != '\0' || !std::isfinite(args.scale) ||
            args.scale <= 0) {
          std::fprintf(stderr, "bad --scale: %s\n", argv[i]);
          usage(stderr, 2);
        }
      } else if (arg.rfind("--seed=", 0) == 0) {
        const std::string_view value = arg.substr(7);
        const auto [end, ec] = std::from_chars(
            value.data(), value.data() + value.size(), args.seed);
        if (value.empty() || ec != std::errc() ||
            end != value.data() + value.size()) {
          std::fprintf(stderr, "bad --seed: %s\n", argv[i]);
          usage(stderr, 2);
        }
      } else if (arg.rfind("--corpus=", 0) == 0) {
        args.corpus = std::string(arg.substr(9));
      } else if (arg == "--help" || arg == "-h") {
        usage(stdout, 0);
      } else {
        std::fprintf(stderr, "unknown option: %s\n", argv[i]);
        usage(stderr, 2);
      }
    }
    return args;
  }

  uint64_t TargetNodes(const corpus::CorpusGenerator& corpus) const {
    const double nodes =
        static_cast<double>(corpus.default_target_nodes()) * scale;
    return nodes < 100 ? 100 : static_cast<uint64_t>(nodes);
  }

  bool Selected(const corpus::CorpusGenerator& generator) const {
    return corpus.empty() || generator.name() == corpus;
  }
};

/// Dies loudly on error — benches are experiments, not servers.
template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).Value();
}

inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

inline void PrintRule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Machine-readable benchmark output: one JSON object per result row,
/// written to BENCH_<name>.json in the working directory when Finish()
/// runs (also from the destructor). The printed tables stay the human
/// surface; these files are what the perf trajectory diffs across PRs.
/// A top-level `host` object says where the timings were taken;
/// compare_bench.py compares timings only between equal hosts.
///
///   BenchReport report("fig6_compression", args);
///   report.Row().Set("corpus", name).Set("dag_vertices", vm);
class BenchReport {
 public:
  BenchReport(std::string_view name, const BenchArgs& args)
      : name_(name),
        preamble_(StrFormat(
            "  \"bench\": \"%s\",\n  \"scale\": %g,\n  \"seed\": %llu,\n"
            "  \"host\": {\"nproc\": %u, \"compiler\": \"%s\", "
            "\"build_type\": \"%s\", \"commit\": \"%s\"},\n",
            name_.c_str(), args.scale,
            static_cast<unsigned long long>(args.seed),
            std::thread::hardware_concurrency(), XCQ_BENCH_COMPILER,
            XCQ_BENCH_BUILD_TYPE, XCQ_BENCH_COMMIT)) {}
  ~BenchReport() { Finish(); }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  /// Starts a new result row; subsequent Set() calls fill it.
  BenchReport& Row() {
    rows_.emplace_back();
    return *this;
  }

  // One template for all integer widths: size_t, uint64_t, and int
  // differ across platforms, and fixed overloads go ambiguous where
  // size_t is neither (e.g. unsigned long on macOS).
  template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  BenchReport& Set(const char* key, T value) {
    if constexpr (std::is_signed_v<T>) {
      return Append(key,
                    StrFormat("%lld", static_cast<long long>(value)));
    } else {
      return Append(
          key, StrFormat("%llu", static_cast<unsigned long long>(value)));
    }
  }
  BenchReport& Set(const char* key, double value) {
    return Append(key, StrFormat("%.6g", value));
  }
  BenchReport& Set(const char* key, std::string_view value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    return Append(key, quoted);
  }

  /// Writes BENCH_<name>.json; idempotent, called from the destructor.
  void Finish() {
    if (written_) return;
    written_ = true;
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "WARNING: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n%s  \"rows\": [", preamble_.c_str());
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s\n    {%s}", i == 0 ? "" : ",",
                   rows_[i].c_str());
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("\n[%s written]\n", path.c_str());
  }

 private:
  BenchReport& Append(const char* key, const std::string& json_value) {
    if (rows_.empty()) rows_.emplace_back();
    std::string& row = rows_.back();
    if (!row.empty()) row += ", ";
    row += '"';
    row += key;
    row += "\": ";
    row += json_value;
    return *this;
  }

  std::string name_;
  std::string preamble_;
  std::vector<std::string> rows_;
  bool written_ = false;
};

}  // namespace xcq::bench

#endif  // XCQ_BENCH_BENCH_UTIL_H_
