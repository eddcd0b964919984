// bench_serve — what a client of xcq_serverd sees, end to end and layer
// by layer (SERVE.md).
//
//   bench_serve [--workload=NAME] [--seed=N] [--seconds=S] [--traced]
//               [--out=PATH] [--scratch=DIR]
//
// Untraced (the default): starts the real TcpServer in process on
// loopback with the daemon's defaults, LOADs generated corpora over the
// socket, and drives one workload from this one thread. Every answer is
// checked against the uncompressed-tree evaluator. Prints a table, writes
// BENCH_serve.json, and ends its output with one JSON line:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --traced: replays the same seeded request streams through the server
// layers in process, with spans around each layer call, and reports the
// per-layer metrics instead (spans go to BENCH_serve_trace.json).
//
// Without --workload every workload runs, one after another. Exits 1 if
// any run was incorrect, 2 on a bad command line.

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve_bench.h"
#include "xcq/util/string_util.h"

namespace xcq::servebench {
namespace {

struct Args {
  std::string workload;  ///< Empty = all.
  uint64_t seed = 42;
  double seconds = 10.0;
  bool traced = false;
  std::string out = "BENCH_serve.json";
  std::string scratch;
};

[[noreturn]] void Usage(const char* argv0, const std::string& problem) {
  if (!problem.empty()) {
    std::fprintf(stderr, "bench_serve: %s\n", problem.c_str());
  }
  std::string names;
  for (const Workload& workload : AllWorkloads()) {
    names += names.empty() ? workload.name : "|" + workload.name;
  }
  std::fprintf(stderr,
               "usage: %s [--workload=%s] [--seed=N] [--seconds=S] "
               "[--traced] [--out=PATH] [--scratch=DIR]\n",
               argv0, names.c_str());
  std::exit(problem.empty() ? 0 : 2);
}

/// The whole value must parse: "--seed=7x" is an error, not seed 7.
bool ParseU64(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

bool ParseSeconds(std::string_view text, double* out) {
  const std::string copy(text);
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(copy.c_str(), &end);
  if (copy.empty() || end != copy.c_str() + copy.size() || errno != 0 ||
      !(value > 0.0) || value > 3600.0) {
    return false;
  }
  *out = value;
  return true;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string_view flag = arg.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view() : arg.substr(eq + 1);
    const bool has_value = eq != std::string_view::npos;
    if (flag == "--help" || flag == "-h") {
      Usage(argv[0], "");
    } else if (flag == "--traced" && !has_value) {
      args.traced = true;
    } else if (flag == "--workload" && has_value) {
      if (FindWorkload(value) == nullptr) {
        Usage(argv[0], "unknown workload '" + std::string(value) + "'");
      }
      args.workload = std::string(value);
    } else if (flag == "--seed" && has_value) {
      if (!ParseU64(value, &args.seed)) {
        Usage(argv[0], "bad --seed '" + std::string(value) + "'");
      }
    } else if (flag == "--seconds" && has_value) {
      if (!ParseSeconds(value, &args.seconds)) {
        Usage(argv[0], "bad --seconds '" + std::string(value) + "'");
      }
    } else if (flag == "--out" && has_value && !value.empty()) {
      args.out = std::string(value);
    } else if (flag == "--scratch" && has_value && !value.empty()) {
      args.scratch = std::string(value);
    } else {
      Usage(argv[0], "unknown or malformed argument '" + std::string(arg) +
                         "'");
    }
  }
  return args;
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// All the digits a double carries.
std::string JsonNumber(double value) { return StrFormat("%.17g", value); }

std::string MetricsJson(const std::vector<Metric>& metrics, bool samples) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit);
    if (samples) out += StrFormat(", \"samples\": %llu",
                                  static_cast<unsigned long long>(m.samples));
    out += "}";
  }
  return out + "}";
}

std::string RunJson(const std::string& workload, const RunResult& r) {
  std::string structure = "{";
  for (const auto& [key, value] : r.structure) {
    if (structure.size() > 1) structure += ", ";
    structure += JsonString(key) +
                 StrFormat(": %llu", static_cast<unsigned long long>(value));
  }
  structure += "}";
  std::string problems = "[";
  for (const std::string& problem : r.problems) {
    if (problems.size() > 1) problems += ", ";
    problems += JsonString(problem);
  }
  problems += "]";
  return StrFormat(
      "    {\"workload\": %s, \"correct\": %s, \"attempted\": %llu, "
      "\"failed\": %llu,\n     \"metrics\": %s,\n     \"diagnostics\": %s,\n"
      "     \"structure\": %s,\n     \"problems\": %s}",
      JsonString(workload).c_str(), r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      MetricsJson(r.metrics, true).c_str(),
      MetricsJson(r.diagnostics, true).c_str(), structure.c_str(),
      problems.c_str());
}

/// BENCH_serve.json: the host it ran on (timings compare only between
/// like hosts), the arguments, and every run of this invocation.
void WriteBenchJson(
    const Args& args,
    const std::vector<std::pair<std::string, RunResult>>& runs) {
  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "WARNING: cannot write %s\n", args.out.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"serve\",\n"
               "  \"host\": {\"nproc\": %u, \"compiler\": %s, "
               "\"build_type\": %s, \"git_sha\": %s},\n"
               "  \"seed\": %llu,\n  \"seconds\": %s,\n  \"traced\": %s,\n"
               "  \"runs\": [\n",
               std::thread::hardware_concurrency(),
               JsonString(SERVEBENCH_COMPILER).c_str(),
               JsonString(SERVEBENCH_BUILD_TYPE).c_str(),
               JsonString(SERVEBENCH_GIT_SHA).c_str(),
               static_cast<unsigned long long>(args.seed),
               JsonNumber(args.seconds).c_str(),
               args.traced ? "true" : "false");
  for (size_t i = 0; i < runs.size(); ++i) {
    std::fprintf(f, "%s%s", i == 0 ? "" : ",\n",
                 RunJson(runs[i].first, runs[i].second).c_str());
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
}

void PrintRun(const std::string& workload, const RunResult& r) {
  std::printf("%s — %s, %llu attempted, %llu failed\n", workload.c_str(),
              r.correct ? "correct" : "INCORRECT",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const std::vector<Metric>* list : {&r.metrics, &r.diagnostics}) {
    for (const Metric& m : *list) {
      std::printf("  %-34s %14.4f %-6s (%llu samples)\n", m.name.c_str(),
                  m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    }
  }
  for (const auto& [key, value] : r.structure) {
    std::printf("  %-34s %14llu\n", key.c_str(),
                static_cast<unsigned long long>(value));
  }
  for (const std::string& problem : r.problems) {
    std::printf("  PROBLEM: %s\n", problem.c_str());
  }
}

}  // namespace
}  // namespace xcq::servebench

int main(int argc, char** argv) {
  using namespace xcq::servebench;
  const Args args = ParseArgs(argc, argv);
  const std::filesystem::path scratch =
      !args.scratch.empty()
          ? std::filesystem::path(args.scratch)
          : std::filesystem::temp_directory_path() /
                ("bench_serve." + std::to_string(::getpid()));

  std::vector<std::pair<std::string, RunResult>> runs;
  for (const Workload& workload : AllWorkloads()) {
    if (!args.workload.empty() && workload.name != args.workload) continue;
    RunOptions options;
    options.workload = &workload;
    options.seed = args.seed;
    options.seconds = args.seconds;
    options.scratch_dir = (scratch / workload.name).string();
    RunResult result = args.traced ? RunTraced(options) : RunUntraced(options);
    std::error_code ignored;
    std::filesystem::remove_all(options.scratch_dir, ignored);
    PrintRun(workload.name, result);
    runs.emplace_back(workload.name, std::move(result));
  }
  std::error_code ignored;
  std::filesystem::remove_all(scratch, ignored);
  WriteBenchJson(args, runs);

  bool correct = true;
  for (const auto& [name, result] : runs) {
    correct = correct && result.correct;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                MetricsJson(result.metrics, false).c_str());
  }
  std::fflush(stdout);
  return correct ? 0 : 1;
}
