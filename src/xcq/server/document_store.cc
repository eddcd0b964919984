#include "xcq/server/document_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>

#include "xcq/instance/instance_io.h"
#include "xcq/instance/stats.h"
#include "xcq/util/string_util.h"
#include "xcq/util/timer.h"
#include "xcq/xml/sax_parser.h"

namespace xcq::server {

namespace {

/// The per-document label every document-scoped series carries.
obs::LabelSet DocLabels(const std::string& name) {
  return obs::LabelSet{{"document", name}};
}

obs::LabelSet DocAxisLabels(const std::string& name,
                            engine::AxisFamily family) {
  return obs::LabelSet{
      {"document", name},
      {"axis", std::string(engine::AxisFamilyName(family))}};
}

/// One per-family sweep counter: the `{document, axis}` METRICS counter
/// and the AxisFamilyStats field it accumulates. Registration,
/// per-outcome recording and the store's cumulative totals all iterate
/// kAxisCounters, so a new family counter is one field, its increment
/// site and one row.
struct AxisCounter {
  std::string_view name;
  std::string_view help;
  double (*get)(const engine::AxisFamilyStats&);
  void (*add)(engine::AxisFamilyStats* total,
              const engine::AxisFamilyStats& delta);
};

template <auto Field>
constexpr AxisCounter AxisRow(std::string_view name, std::string_view help) {
  return {name, help,
          [](const engine::AxisFamilyStats& s) {
            return static_cast<double>(s.*Field);
          },
          [](engine::AxisFamilyStats* total,
             const engine::AxisFamilyStats& delta) {
            total->*Field += delta.*Field;
          }};
}

/// A frozen series no counter feeds: registered so the exposition keeps
/// its name, HELP and TYPE lines, and always 0.
constexpr AxisCounter FrozenAxisRow(std::string_view name,
                                    std::string_view help) {
  return {name, help, [](const engine::AxisFamilyStats&) { return 0.0; },
          [](engine::AxisFamilyStats*, const engine::AxisFamilyStats&) {}};
}

/// Names and HELP lines are frozen (docs/OBSERVABILITY.md), so the
/// `pruned` row keeps its region wording while it counts closed forms.
constexpr AxisCounter kAxisCounters[] = {
    AxisRow<&engine::AxisFamilyStats::sweeps>(
        "xcq_sweeps_total", "Axis sweeps run, by kernel family"),
    AxisRow<&engine::AxisFamilyStats::visited>(
        "xcq_sweep_visited_total", "Vertices visited by axis sweeps"),
    AxisRow<&engine::AxisFamilyStats::full>(
        "xcq_sweep_full_total",
        "Vertices unpruned sweeps would have visited"),
    AxisRow<&engine::AxisFamilyStats::pruned>(
        "xcq_sweeps_pruned_total",
        "Sweeps restricted to a path-summary region"),
    FrozenAxisRow("xcq_sweeps_skipped_total",
                  "Sweeps skipped outright (empty region)"),
    AxisRow<&engine::AxisFamilyStats::seconds>(
        "xcq_sweep_seconds_total", "Seconds inside sweep kernels"),
};
/// The rows the on-scrape `xcq_sweep_prune_ratio` gauge reads.
constexpr size_t kVisitedRow = 1;
constexpr size_t kFullRow = 2;
static_assert(kAxisCounters[kVisitedRow].name == "xcq_sweep_visited_total");
static_assert(kAxisCounters[kFullRow].name == "xcq_sweep_full_total");

/// How a STATS value renders.
enum class FieldFormat {
  kInteger,  ///< decimal, from `integer`
  kFixed6,   ///< `%.6f` of `real` (cumulative seconds)
  kFixed3,   ///< `%.3f` of `real` (rates and latency percentiles)
  kFlag,     ///< `0` / `1`, from `integer`
  kSource,   ///< `xml` / `xcqi`, from `integer`
};

/// One DocumentInfo field: its STATS key and format and, for a
/// per-document gauge (registered at load, set on every scrape), the
/// METRICS name and help. STATS and the gauge read the same member:
/// `integer` renders integral fields exactly, `real` feeds the gauges
/// and the kFixed formats.
struct DocumentField {
  std::string_view key;  ///< STATS key; "" = METRICS only.
  FieldFormat format;
  std::string_view gauge;  ///< "" = no gauge.
  std::string_view help;
  uint64_t (*integer)(const DocumentInfo&);
  double (*real)(const DocumentInfo&);
};

template <auto Field>
constexpr DocumentField Row(std::string_view key, FieldFormat format,
                            std::string_view gauge = {},
                            std::string_view help = {}) {
  return {key, format, gauge, help,
          [](const DocumentInfo& info) {
            return static_cast<uint64_t>(info.*Field);
          },
          [](const DocumentInfo& info) {
            return static_cast<double>(info.*Field);
          }};
}

template <auto Field>
constexpr DocumentField SweepRow(std::string_view key) {
  return {key, FieldFormat::kInteger, {}, {},
          [](const DocumentInfo& info) { return info.sweeps.*Field; },
          [](const DocumentInfo& info) {
            return static_cast<double>(info.sweeps.*Field);
          }};
}

/// A frozen STATS key (and gauge) no field feeds: always 0.
constexpr DocumentField FrozenRow(std::string_view key,
                                  std::string_view gauge = {},
                                  std::string_view help = {}) {
  return {key, FieldFormat::kInteger, gauge, help,
          [](const DocumentInfo&) -> uint64_t { return 0; },
          [](const DocumentInfo&) { return 0.0; }};
}

using F = FieldFormat;
constexpr DocumentField kDocumentFields[] = {
    Row<&DocumentInfo::memory_bytes>("bytes", F::kInteger,
                                     "xcq_document_memory_bytes",
                                     "Instance footprint in bytes"),
    Row<&DocumentInfo::vertex_count>("vertices", F::kInteger,
                                     "xcq_document_vertices",
                                     "DAG vertices (including splits)"),
    Row<&DocumentInfo::rle_edges>("edges", F::kInteger),
    Row<&DocumentInfo::tree_nodes>("tree_nodes", F::kInteger,
                                   "xcq_document_tree_nodes",
                                   "Tree nodes the DAG represents"),
    Row<&DocumentInfo::tracked_tags>("tags", F::kInteger),
    Row<&DocumentInfo::tracked_patterns>("patterns", F::kInteger),
    Row<&DocumentInfo::queries_served>("queries", F::kInteger),
    Row<&DocumentInfo::batches_served>("batches", F::kInteger),
    Row<&DocumentInfo::batches_shared>("shared", F::kInteger),
    Row<&DocumentInfo::source_parses>("parses", F::kInteger),
    Row<&DocumentInfo::has_source>("source", F::kSource),
    FrozenRow("summary", "xcq_document_summary_nodes",
              "Path-summary nodes (0 = not built)"),
    SweepRow<&engine::AxisFamilyStats::visited>("visited"),
    SweepRow<&engine::AxisFamilyStats::full>("full"),
    SweepRow<&engine::AxisFamilyStats::pruned>("pruned"),
    FrozenRow("skipped"),
    Row<&DocumentInfo::scratch_resident>(
        "scratch_resident", F::kInteger, "xcq_document_scratch_resident",
        "Scratch-pool slots currently held by the instance"),
    Row<&DocumentInfo::scratch_capacity>("", F::kInteger,
                                         "xcq_document_scratch_capacity",
                                         "Scratch-pool residency cap"),
    Row<&DocumentInfo::scratch_hits>(
        "scratch_hits", F::kInteger, "xcq_document_scratch_hits",
        "Scratch checkouts served without allocating"),
    Row<&DocumentInfo::scratch_allocs>(
        "scratch_allocs", F::kInteger, "xcq_document_scratch_allocations",
        "Scratch checkouts that had to (re)allocate"),
    Row<&DocumentInfo::traversal_builds>(
        "traversal_builds", F::kInteger, "xcq_document_traversal_builds",
        "Traversal-cache (re)builds so far"),
    Row<&DocumentInfo::summary_builds>("summary_builds", F::kInteger,
                                       "xcq_document_summary_builds",
                                       "Path-summary (re)builds so far"),
    Row<&DocumentInfo::label_seconds>("label_s", F::kFixed6),
    Row<&DocumentInfo::minimize_seconds>("minimize_s", F::kFixed6),
    Row<&DocumentInfo::qps>("qps", F::kFixed3, "xcq_document_qps",
                            "Queries per second of registry uptime"),
    Row<&DocumentInfo::share_rate>(
        "share_rate", F::kFixed3, "xcq_document_batch_share_rate",
        "Fraction of batches served with shared sweeps"),
    Row<&DocumentInfo::p50_ms>("p50_ms", F::kFixed3),
    Row<&DocumentInfo::p95_ms>("p95_ms", F::kFixed3),
    Row<&DocumentInfo::p99_ms>("p99_ms", F::kFixed3),
    Row<&DocumentInfo::queued>("queued", F::kInteger),
    Row<&DocumentInfo::inflight>("inflight", F::kInteger),
    Row<&DocumentInfo::warm>("warm", F::kFlag),
    Row<&DocumentInfo::resident>("resident", F::kFlag),
    Row<&DocumentInfo::spill_bytes>("spill_bytes", F::kInteger),
    Row<&DocumentInfo::shed>("shed", F::kInteger),
    Row<&DocumentInfo::cancelled>("cancelled", F::kInteger),
};

}  // namespace

std::string FormatDocumentInfo(const DocumentInfo& info) {
  std::string line = info.name;
  for (const DocumentField& field : kDocumentFields) {
    if (field.key.empty()) continue;
    line += ' ';
    line += field.key;
    line += '=';
    switch (field.format) {
      case FieldFormat::kInteger:
      case FieldFormat::kFlag:  // a bool member reads 0 or 1
        line += std::to_string(field.integer(info));
        break;
      case FieldFormat::kFixed6:
        line += StrFormat("%.6f", field.real(info));
        break;
      case FieldFormat::kFixed3:
        line += StrFormat("%.3f", field.real(info));
        break;
      case FieldFormat::kSource:
        line += field.integer(info) != 0 ? "xml" : "xcqi";
        break;
    }
  }
  return line;
}

namespace {

/// Manifest header: format magic + version, own line.
constexpr std::string_view kManifestHeader = "XCQM 1";
constexpr std::string_view kManifestName = "MANIFEST";

/// Percent-encodes `s` so it is safe both as a file-name stem and as a
/// space-separated manifest token. Conservative: everything outside
/// [A-Za-z0-9._-] is escaped.
std::string EscapeToken(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const bool plain = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                       c == '-';
    if (plain) {
      out.push_back(c);
    } else {
      static const char* kHex = "0123456789ABCDEF";
      out.push_back('%');
      out.push_back(kHex[(static_cast<unsigned char>(c) >> 4) & 0xF]);
      out.push_back(kHex[static_cast<unsigned char>(c) & 0xF]);
    }
  }
  return out;
}

bool UnescapeToken(std::string_view s, std::string* out) {
  out->clear();
  out->reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out->push_back(s[i]);
      continue;
    }
    if (i + 2 >= s.size()) return false;
    auto hex = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      return -1;
    };
    const int hi = hex(s[i + 1]);
    const int lo = hex(s[i + 2]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return true;
}

std::vector<std::string_view> SplitTokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  size_t pos = 0;
  while (pos < line.size()) {
    const size_t space = line.find(' ', pos);
    const size_t end = space == std::string_view::npos ? line.size() : space;
    if (end > pos) tokens.push_back(line.substr(pos, end - pos));
    pos = end + 1;
  }
  return tokens;
}

bool ParseU64Token(std::string_view token, uint64_t* out) {
  if (token.empty() || token.size() > 20) return false;
  uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<uint64_t>(c - '0');
    // A wrapped value would look valid and then fail the size check as
    // a spurious corruption (or regress the generation counter).
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

/// Whole-file read that distinguishes a verified-missing file
/// (kNotFound) from a transient I/O failure such as fd pressure
/// (kIoError) — the fault-in policy may delete durable state only on
/// the former.
Result<std::string> ReadSpillBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound(
          StrFormat("spill file '%s' is missing", path.c_str()));
    }
    return Status::IoError(StrFormat("cannot open '%s': %s", path.c_str(),
                                     std::strerror(errno)));
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Status::IoError(StrFormat(
          "error reading '%s': %s", path.c_str(), std::strerror(errno)));
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

}  // namespace

// --- SpillManager ----------------------------------------------------------

Status SpillManager::Init(const std::string& data_dir, RecoveryStats* stats) {
  if (::mkdir(data_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError(StrFormat("cannot create data dir '%s': %s",
                                     data_dir.c_str(), std::strerror(errno)));
  }
  struct stat st{};
  if (::stat(data_dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::IoError(
        StrFormat("data dir '%s' is not a directory", data_dir.c_str()));
  }

  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  const std::string manifest_path =
      data_dir + "/" + std::string(kManifestName);
  bool catalog_trusted = true;  // cleanup may delete unreferenced files
  if (::access(manifest_path.c_str(), F_OK) == 0) {
    Result<std::string> text = xml::ReadFileToString(manifest_path);
    if (!text.ok()) {
      ++stats->errors;
      std::fprintf(stderr, "xcq: recovery: manifest unreadable: %s\n",
                   text.status().ToString().c_str());
      catalog_trusted = false;
    } else {
      size_t line_no = 0;
      size_t pos = 0;
      bool header_ok = false;
      while (pos <= text->size()) {
        const size_t nl = text->find('\n', pos);
        // A manifest is rewritten atomically and always ends in '\n';
        // a final fragment without one is a torn line — skip it.
        const bool torn = nl == std::string::npos;
        const std::string_view line =
            std::string_view(*text).substr(
                pos, torn ? text->size() - pos : nl - pos);
        pos = torn ? text->size() + 1 : nl + 1;
        if (line.empty() && torn) break;  // text ended cleanly in '\n'
        ++line_no;
        if (line.empty()) continue;
        if (line_no == 1) {
          if (!torn && line == kManifestHeader) {
            header_ok = true;
            continue;
          }
          ++stats->errors;
          std::fprintf(stderr,
                       "xcq: recovery: manifest header unrecognized; "
                       "starting cold\n");
          catalog_trusted = false;
          break;
        }
        if (!header_ok) break;
        std::string reason;
        SpillRecord rec;
        std::string name;
        const std::vector<std::string_view> tokens = SplitTokens(line);
        uint64_t bytes = 0;
        uint64_t crc = 0;
        if (torn) {
          reason = "torn line";
        } else if (tokens.size() != 7 || tokens[0] != "doc") {
          reason = "malformed line";
        } else if (!UnescapeToken(tokens[1], &name) || name.empty()) {
          reason = "bad document name";
        } else if (tokens[2].find('/') != std::string_view::npos ||
                   tokens[2].empty()) {
          reason = "bad spill file name";
        } else if (!ParseU64Token(tokens[3], &bytes) ||
                   !ParseU64Token(tokens[4], &crc) || crc > UINT32_MAX ||
                   !ParseU64Token(tokens[5], &rec.generation)) {
          reason = "bad numeric field";
        }
        if (!reason.empty()) {
          ++stats->errors;
          std::fprintf(stderr,
                       "xcq: recovery: manifest line %zu skipped (%s)\n",
                       line_no, reason.c_str());
          continue;
        }
        rec.file = std::string(tokens[2]);
        rec.bytes = bytes;
        rec.crc = static_cast<uint32_t>(crc);
        if (tokens[6] != "-") {
          size_t lp = 0;
          const std::string_view packed = tokens[6];
          while (lp <= packed.size()) {
            const size_t comma = packed.find(',', lp);
            const size_t end =
                comma == std::string_view::npos ? packed.size() : comma;
            std::string label;
            if (end > lp && UnescapeToken(packed.substr(lp, end - lp),
                                          &label)) {
              rec.labels.push_back(std::move(label));
            }
            if (comma == std::string_view::npos) break;
            lp = comma + 1;
          }
        }
        next_generation_ = std::max(next_generation_, rec.generation + 1);
        // Duplicate names: last entry wins (a rewritten manifest never
        // has duplicates; tolerating them keeps recovery total).
        records_[name] = std::move(rec);
      }
      if (!header_ok) catalog_trusted = false;
    }
  }

  // Clean torn temp files always; clean unreferenced spills only when
  // the manifest was trusted (they are then crash leftovers from the
  // window between a spill rename and the manifest rewrite).
  DIR* dir = ::opendir(data_dir.c_str());
  if (dir != nullptr) {
    std::vector<std::string> referenced;
    for (const auto& [name, rec] : records_) referenced.push_back(rec.file);
    while (struct dirent* entry = ::readdir(dir)) {
      const std::string_view file = entry->d_name;
      if (file == "." || file == ".." || file == kManifestName) continue;
      const bool tmp = file.size() > 4 &&
                       file.substr(file.size() - 4) == ".tmp";
      const bool spill = file.size() > 5 &&
                         file.substr(file.size() - 5) == ".xcqi";
      const bool orphan =
          spill && catalog_trusted &&
          std::find(referenced.begin(), referenced.end(), file) ==
              referenced.end();
      if (tmp || orphan) {
        ::unlink((data_dir + "/" + std::string(file)).c_str());
      }
    }
    ::closedir(dir);
  }

  dir_ = data_dir;
  return Status::OK();
}

Result<SpillRecord> SpillManager::Write(const std::string& name,
                                        const Instance& instance) {
  if (!enabled()) {
    return Status::InvalidArgument("spill manager is disabled");
  }
  // Serialize outside the manager lock: callers hold their document
  // lock, so the instance cannot mutate underneath us.
  std::string bytes = SerializeInstanceChecksummed(instance);
  std::vector<std::string> labels;
  for (const RelationId r : instance.LiveRelations()) {
    labels.push_back(instance.schema().Name(r));
  }
  std::lock_guard<std::mutex> lock(mu_);
  SpillRecord rec;
  rec.generation = next_generation_++;
  rec.file = EscapeToken(name) + ".g" + std::to_string(rec.generation) +
             ".xcqi";
  rec.bytes = bytes.size();
  rec.crc = Crc32(bytes);
  rec.labels = std::move(labels);
  XCQ_RETURN_IF_ERROR(AtomicWriteFile(dir_ + "/" + rec.file, bytes));
  std::string superseded;
  const auto it = records_.find(name);
  if (it != records_.end() && it->second.file != rec.file) {
    superseded = it->second.file;
  }
  records_[name] = rec;
  // Crash order: the new spill is durable before the manifest points at
  // it, and the old generation is deleted only after the manifest no
  // longer references it — every crash point leaves a consistent view.
  XCQ_RETURN_IF_ERROR(RewriteManifestLocked());
  if (!superseded.empty()) {
    ::unlink((dir_ + "/" + superseded).c_str());
  }
  return rec;
}

Result<Instance> SpillManager::Read(const std::string& name,
                                    uint64_t* generation) const {
  SpillRecord rec;
  if (!Lookup(name, &rec)) {
    return Status::NotFound(
        StrFormat("no spill for document '%s'", name.c_str()));
  }
  for (;;) {
    if (generation != nullptr) *generation = rec.generation;
    Status failure = Status::OK();
    const Result<std::string> bytes = ReadSpillBytes(dir_ + "/" + rec.file);
    if (!bytes.ok()) {
      failure = bytes.status();
    } else if (bytes->size() != rec.bytes) {
      failure = Status::Corruption(
          StrFormat("spill '%s' is %zu bytes, manifest says %zu",
                    rec.file.c_str(), bytes->size(), rec.bytes));
    } else if (Crc32(*bytes) != rec.crc) {
      failure = Status::Corruption(StrFormat(
          "spill '%s' CRC does not match the manifest", rec.file.c_str()));
    } else {
      Result<Instance> instance = DeserializeInstance(*bytes);
      if (instance.ok()) return instance;
      failure = instance.status();
    }
    // A concurrent respill (demotion, PERSIST, label growth) may have
    // superseded `rec` — Write unlinks the old generation's file right
    // after the manifest rename, so a reader holding the stale record
    // sees ENOENT. If the catalog moved on, the failure was against
    // stale state: retry against the fresh record. Generations strictly
    // increase, so every retry consumes a completed Write — progress.
    SpillRecord fresh;
    if (Lookup(name, &fresh) && fresh.generation != rec.generation) {
      rec = std::move(fresh);
      continue;
    }
    return failure;
  }
}

bool SpillManager::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(name);
  if (it == records_.end()) return false;
  return RemoveEntryLocked(it);
}

bool SpillManager::RemoveIfGeneration(const std::string& name,
                                      uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(name);
  if (it == records_.end() || it->second.generation != generation) {
    return false;  // superseded (or gone) — the newer spill must survive
  }
  return RemoveEntryLocked(it);
}

bool SpillManager::RemoveEntryLocked(
    std::map<std::string, SpillRecord>::iterator it) {
  const std::string file = it->second.file;
  records_.erase(it);
  // Manifest first, file second: a crash in between leaves an orphan
  // spill, which the next recovery scan cleans up. Rewrite failure is
  // tolerated — a stale entry pointing at a deleted file degrades to a
  // cold miss at the next fault-in, never to wrong data.
  const Status status = RewriteManifestLocked();
  if (!status.ok()) {
    std::fprintf(stderr, "xcq: manifest rewrite after removal failed: %s\n",
                 status.ToString().c_str());
  }
  ::unlink((dir_ + "/" + file).c_str());
  return true;
}

bool SpillManager::Lookup(const std::string& name, SpillRecord* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(name);
  if (it == records_.end()) return false;
  *out = it->second;
  return true;
}

std::vector<std::string> SpillManager::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(records_.size());
  for (const auto& [name, rec] : records_) names.push_back(name);
  return names;
}

size_t SpillManager::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [name, rec] : records_) total += rec.bytes;
  return total;
}

Status SpillManager::RewriteManifestLocked() {
  std::string out(kManifestHeader);
  out.push_back('\n');
  for (const auto& [name, rec] : records_) {
    out.append("doc ");
    out.append(EscapeToken(name));
    out.push_back(' ');
    out.append(rec.file);
    out.append(StrFormat(" %zu %u %llu ", rec.bytes, rec.crc,
                         static_cast<unsigned long long>(rec.generation)));
    if (rec.labels.empty()) {
      out.push_back('-');
    } else {
      for (size_t i = 0; i < rec.labels.size(); ++i) {
        if (i > 0) out.push_back(',');
        out.append(EscapeToken(rec.labels[i]));
      }
    }
    out.push_back('\n');
  }
  return AtomicWriteFile(dir_ + "/" + std::string(kManifestName), out);
}

// --- StoredDocument --------------------------------------------------------

/// Resolved metric handles for one document, all owned by the registry.
struct StoredDocument::Handles {
  obs::Counter* queries = nullptr;
  obs::Counter* query_errors = nullptr;
  obs::Counter* batches = nullptr;
  obs::Counter* batches_shared = nullptr;
  obs::Histogram* latency = nullptr;
  obs::Counter* phase_seconds[obs::kPhaseCount] = {};
  /// Indexed by family, then by kAxisCounters row.
  obs::Counter* axis[engine::kAxisFamilyCount][std::size(kAxisCounters)] =
      {};
  obs::Gauge* prune_ratio[engine::kAxisFamilyCount] = {};
  /// Indexed by kDocumentFields row; null for rows without a gauge.
  obs::Gauge* gauges[std::size(kDocumentFields)] = {};
};

StoredDocument::StoredDocument(QuerySession session, std::string name,
                               obs::Registry* registry)
    : session_(std::move(session)),
      name_(std::move(name)),
      registry_(registry) {
  RefreshFootprintLocked();  // single-threaded here: no lock needed yet
  if (registry_ == nullptr) return;
  // Resolve every handle once; the per-query metrics cost is then only
  // relaxed atomic adds. The full series catalog is documented in
  // docs/OBSERVABILITY.md; the per-family counters and per-document
  // gauges come from kAxisCounters and kDocumentFields.
  obs::Registry& r = *registry_;
  handles_ = std::make_unique<Handles>();
  Handles& h = *handles_;
  h.queries = r.GetCounter("xcq_document_queries_total", DocLabels(name_),
                           "Queries evaluated against the document");
  h.query_errors =
      r.GetCounter("xcq_document_query_errors_total", DocLabels(name_),
                   "Queries that failed (parse, compile, or evaluation)");
  h.batches = r.GetCounter("xcq_document_batches_total", DocLabels(name_),
                           "BATCH requests evaluated against the document");
  h.batches_shared = r.GetCounter(
      "xcq_document_batches_shared_total", DocLabels(name_),
      "Batches served with shared (multi-query) axis sweeps");
  h.latency = r.GetHistogram(
      "xcq_query_seconds", DocLabels(name_),
      obs::Histogram::LatencyBounds(),
      "End-to-end query latency at the document store (lock held)");
  for (size_t p = 0; p < obs::kPhaseCount; ++p) {
    obs::LabelSet labels = DocLabels(name_);
    labels.Add("phase",
               std::string(obs::PhaseName(static_cast<obs::Phase>(p))));
    h.phase_seconds[p] =
        r.GetCounter("xcq_phase_seconds_total", std::move(labels),
                     "Seconds spent per query phase (from trace spans)");
  }
  for (size_t f = 0; f < engine::kAxisFamilyCount; ++f) {
    const auto family = static_cast<engine::AxisFamily>(f);
    for (size_t row = 0; row < std::size(kAxisCounters); ++row) {
      h.axis[f][row] =
          r.GetCounter(kAxisCounters[row].name, DocAxisLabels(name_, family),
                       kAxisCounters[row].help);
    }
    h.prune_ratio[f] = r.GetGauge(
        "xcq_sweep_prune_ratio", DocAxisLabels(name_, family),
        "Fraction of full-sweep visits avoided by pruning (on scrape)");
  }
  for (size_t row = 0; row < std::size(kDocumentFields); ++row) {
    const DocumentField& field = kDocumentFields[row];
    if (field.gauge.empty()) continue;
    h.gauges[row] = r.GetGauge(field.gauge, DocLabels(name_), field.help);
  }
}

StoredDocument::~StoredDocument() = default;

void StoredDocument::RefreshFootprintLocked() {
  footprint_.store(session_.has_instance()
                       ? session_.instance().MemoryFootprint()
                       : 0);
}

Result<QueryOutcome> StoredDocument::Query(std::string_view query_text,
                                           const QueryControl& control) {
  std::lock_guard<std::mutex> lock(mu_);
  double elapsed = 0.0;
  Result<QueryOutcome> outcome = Status::Internal("query did not run");
  {
    ScopedTimer timer(&elapsed);
    outcome = session_.Run(query_text, control);
  }
  // Even failed runs can have merged labels in before erroring.
  RefreshFootprintLocked();
  if (outcome.ok()) {
    RecordOutcomeLocked(*outcome, elapsed);
    MaybeSpillLocked(/*include_structure=*/false);
  } else if (handles_ != nullptr) {
    handles_->query_errors->Increment();
  }
  return outcome;
}

Result<std::vector<QueryOutcome>> StoredDocument::Batch(
    const std::vector<std::string>& query_texts,
    const QueryControl& control) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t shared_before = session_.shared_batch_count();
  double elapsed = 0.0;
  Result<std::vector<QueryOutcome>> outcomes =
      Status::Internal("batch did not run");
  {
    ScopedTimer timer(&elapsed);
    outcomes = session_.RunBatch(query_texts, control);
  }
  RefreshFootprintLocked();
  if (outcomes.ok()) {
    ++batches_served_;
    // Each batch member is charged an equal share of the batch's wall
    // time in the latency histogram — per-member times do not exist on
    // the shared-sweep path.
    const double share =
        outcomes->empty() ? 0.0
                          : elapsed / static_cast<double>(outcomes->size());
    for (const QueryOutcome& outcome : *outcomes) {
      RecordOutcomeLocked(outcome, share);
    }
    if (handles_ != nullptr) {
      handles_->batches->Increment();
      const uint64_t shared_delta =
          session_.shared_batch_count() - shared_before;
      if (shared_delta > 0) {
        handles_->batches_shared->Increment(
            static_cast<double>(shared_delta));
      }
    }
    MaybeSpillLocked(/*include_structure=*/false);
  } else if (handles_ != nullptr) {
    handles_->query_errors->Increment(
        static_cast<double>(query_texts.size()));
  }
  return outcomes;
}

size_t StoredDocument::TrackedLabelsLocked() const {
  return session_.tracked_tag_count() + session_.tracked_pattern_count();
}

void StoredDocument::MarkSpilledLocked() {
  spilled_ = true;
  spilled_labels_ = TrackedLabelsLocked();
  spilled_generation_ = session_.instance().structure_generation();
}

void StoredDocument::MaybeSpillLocked(bool include_structure) {
  if (owner_ == nullptr || !owner_->spills_.enabled()) return;
  if (!session_.has_instance()) return;
  if (spilled_ && TrackedLabelsLocked() == spilled_labels_ &&
      (!include_structure ||
       session_.instance().structure_generation() == spilled_generation_)) {
    return;
  }
  const Status status = owner_->WriteSpill(name_, session_.instance());
  if (status.ok()) {
    MarkSpilledLocked();
    spill_error_logged_ = false;
  } else if (!spill_error_logged_) {
    // Log once per failure streak: durability degrades, serving does
    // not, and every later label growth or demotion retries the write.
    spill_error_logged_ = true;
    std::fprintf(stderr, "xcq: spill of document '%s' failed: %s\n",
                 name_.c_str(), status.ToString().c_str());
  }
}

void StoredDocument::PersistIfDirty() {
  std::lock_guard<std::mutex> lock(mu_);
  MaybeSpillLocked(/*include_structure=*/true);
}

Status StoredDocument::ForcePersist() {
  std::lock_guard<std::mutex> lock(mu_);
  if (owner_ == nullptr || !owner_->spills_.enabled()) {
    return Status::InvalidArgument(
        "persistence is disabled; start the server with --data-dir");
  }
  if (!session_.has_instance()) {
    return Status::InvalidArgument(StrFormat(
        "document '%s' has no compiled instance to persist yet; "
        "run a query first",
        name_.c_str()));
  }
  XCQ_RETURN_IF_ERROR(owner_->WriteSpill(name_, session_.instance()));
  MarkSpilledLocked();
  spill_error_logged_ = false;
  return Status::OK();
}

void StoredDocument::MarkSpilledClean() {
  std::lock_guard<std::mutex> lock(mu_);
  MarkSpilledLocked();
}

void StoredDocument::RecordOutcomeLocked(const QueryOutcome& outcome,
                                         double elapsed_seconds) {
  ++queries_served_;
  label_seconds_ += outcome.label_seconds;
  minimize_seconds_ += outcome.minimize_seconds;
  for (size_t f = 0; f < engine::kAxisFamilyCount; ++f) {
    const engine::AxisFamilyStats& delta = outcome.stats.axis[f];
    for (size_t row = 0; row < std::size(kAxisCounters); ++row) {
      kAxisCounters[row].add(&sweep_totals_[f], delta);
      const double value = kAxisCounters[row].get(delta);
      if (handles_ != nullptr && value > 0.0) {
        handles_->axis[f][row]->Increment(value);
      }
    }
  }
  if (handles_ == nullptr) return;
  handles_->queries->Increment();
  handles_->latency->Observe(elapsed_seconds);
  for (size_t p = 0; p < obs::kPhaseCount; ++p) {
    const double seconds =
        outcome.trace.PhaseSeconds(static_cast<obs::Phase>(p));
    if (seconds > 0.0) handles_->phase_seconds[p]->Increment(seconds);
  }
}

DocumentInfo StoredDocument::Info(std::string name) const {
  std::lock_guard<std::mutex> lock(mu_);
  DocumentInfo info;
  info.name = std::move(name);
  info.queries_served = queries_served_;
  info.batches_served = batches_served_;
  info.batches_shared = session_.shared_batch_count();
  info.source_parses = session_.source_parse_count();
  info.has_source = session_.has_source();
  info.tracked_tags = session_.tracked_tag_count();
  info.tracked_patterns = session_.tracked_pattern_count();
  for (const engine::AxisFamilyStats& family : sweep_totals_) {
    for (const AxisCounter& counter : kAxisCounters) {
      counter.add(&info.sweeps, family);
    }
  }
  info.label_seconds = label_seconds_;
  info.minimize_seconds = minimize_seconds_;
  if (session_.has_instance()) {
    const Instance& instance = session_.instance();
    info.memory_bytes = instance.MemoryFootprint();
    info.vertex_count = instance.vertex_count();
    info.rle_edges = instance.rle_edge_count();
    info.tree_nodes = TreeNodeCount(instance);
    info.scratch_resident = instance.scratch_slot_count();
    info.scratch_capacity = instance.scratch_capacity();
    info.scratch_hits = instance.scratch_stats().pool_hits;
    info.scratch_allocs = instance.scratch_stats().allocations;
    info.traversal_builds = instance.traversal_builds();
  }
  if (batches_served_ > 0) {
    info.share_rate = static_cast<double>(session_.shared_batch_count()) /
                      static_cast<double>(batches_served_);
  }
  if (registry_ != nullptr) {
    const double uptime = registry_->UptimeSeconds();
    if (uptime > 0.0) {
      info.qps = static_cast<double>(queries_served_) / uptime;
    }
    const obs::Histogram::Snapshot snap = handles_->latency->Snap();
    const std::vector<double>& bounds = handles_->latency->bounds();
    info.p50_ms = obs::Histogram::Quantile(snap, bounds, 0.50) * 1e3;
    info.p95_ms = obs::Histogram::Quantile(snap, bounds, 0.95) * 1e3;
    info.p99_ms = obs::Histogram::Quantile(snap, bounds, 0.99) * 1e3;
  }
  return info;
}

void StoredDocument::UpdateScrapeGauges() {
  if (handles_ == nullptr) return;
  const DocumentInfo info = Info(name_);
  for (size_t row = 0; row < std::size(kDocumentFields); ++row) {
    if (handles_->gauges[row] == nullptr) continue;
    handles_->gauges[row]->Set(kDocumentFields[row].real(info));
  }
  for (size_t f = 0; f < engine::kAxisFamilyCount; ++f) {
    const double full = handles_->axis[f][kFullRow]->Value();
    const double visited = handles_->axis[f][kVisitedRow]->Value();
    handles_->prune_ratio[f]->Set(full > 0.0 ? 1.0 - visited / full : 0.0);
  }
}

// --- DocumentStore ---------------------------------------------------------

DocumentStore::DocumentStore(StoreOptions options)
    : options_(std::move(options)),
      loads_total_(registry_.GetCounter("xcq_store_loads_total", {},
                                        "Documents loaded (LOAD requests)")),
      load_misses_total_(registry_.GetCounter(
          "xcq_store_load_misses_total", {},
          "Lookups of documents that were not loaded")),
      evictions_total_(registry_.GetCounter(
          "xcq_store_evictions_total", {},
          "Documents dropped (EVICT requests and capacity eviction)")),
      spill_writes_total_(registry_.GetCounter(
          "xcq_store_spill_writes_total", {},
          "Durable document spills written to the data dir (eager LOAD, "
          "label growth, PERSIST, flush; demotion or flush after a "
          "structural change)")),
      spill_errors_total_(registry_.GetCounter(
          "xcq_store_spill_errors_total", {},
          "Spill or manifest writes that failed")),
      warm_hits_total_(registry_.GetCounter(
          "xcq_store_warm_hits_total", {},
          "Warm documents faulted back in from their spill")),
      warm_misses_total_(registry_.GetCounter(
          "xcq_store_warm_misses_total", {},
          "Warm fault-ins that failed (corrupt, missing, or unreadable "
          "spill)")),
      recovered_total_(registry_.GetCounter(
          "xcq_store_recovered_total", {},
          "Warm documents registered by the startup recovery scan")),
      recovery_errors_total_(registry_.GetCounter(
          "xcq_store_recovery_errors_total", {},
          "Manifest lines or spill artifacts skipped during recovery")),
      documents_gauge_(registry_.GetGauge("xcq_store_documents", {},
                                          "Documents currently cached")),
      warm_documents_gauge_(registry_.GetGauge(
          "xcq_store_warm_documents", {},
          "Spill-backed documents currently not resident")),
      spill_bytes_gauge_(registry_.GetGauge(
          "xcq_store_spill_bytes", {},
          "Summed on-disk size of durable spills")),
      bytes_gauge_(registry_.GetGauge(
          "xcq_store_bytes", {},
          "Summed instance footprint of cached documents")),
      uptime_gauge_(registry_.GetGauge("xcq_server_uptime_seconds", {},
                                       "Seconds since the store started")),
      recovery_seconds_gauge_(registry_.GetGauge(
          "xcq_store_recovery_seconds", {},
          "Wall time of the startup recovery scan")) {
  if (!options_.data_dir.empty()) {
    double seconds = 0.0;
    {
      ScopedTimer timer(&seconds);
      durability_status_ = spills_.Init(options_.data_dir, &recovery_);
      if (durability_status_.ok() && options_.warm_start) {
        for (const std::string& name : spills_.Names()) {
          warm_.emplace(name, WarmEntry{});
          ++recovery_.recovered;
        }
      }
    }
    recovery_.seconds = seconds;
    if (!durability_status_.ok()) {
      std::fprintf(stderr,
                   "xcq: data dir '%s' unusable, running memory-only: %s\n",
                   options_.data_dir.c_str(),
                   durability_status_.ToString().c_str());
    }
    recovered_total_->Increment(static_cast<double>(recovery_.recovered));
    recovery_errors_total_->Increment(static_cast<double>(recovery_.errors));
    recovery_seconds_gauge_->Set(recovery_.seconds);
  }
}

Status DocumentStore::LoadXml(const std::string& name, std::string xml) {
  XCQ_ASSIGN_OR_RETURN(QuerySession session,
                       QuerySession::Open(std::move(xml), options_.session));
  auto doc =
      std::make_shared<StoredDocument>(std::move(session), name, &registry_);
  doc->owner_ = this;
  // No instance exists before the first query of an XML-loaded document,
  // so there is nothing to spill yet; the first query writes it.
  loads_total_->Increment();
  InstallDocument(name, std::move(doc));
  return Status::OK();
}

Status DocumentStore::LoadInstance(const std::string& name,
                                   Instance instance) {
  XCQ_ASSIGN_OR_RETURN(
      QuerySession session,
      QuerySession::FromInstance(std::move(instance), options_.session));
  auto doc =
      std::make_shared<StoredDocument>(std::move(session), name, &registry_);
  doc->owner_ = this;
  // Eager spill before publication: an instance LOAD is durable by the
  // time the reply goes out.
  doc->PersistIfDirty();
  loads_total_->Increment();
  InstallDocument(name, std::move(doc));
  return Status::OK();
}

void DocumentStore::InstallDocument(const std::string& name,
                                    std::shared_ptr<StoredDocument> doc) {
  doc->last_used_.store(++clock_);
  // Capacity victims destruct after `mu_` is released (see Evict).
  std::vector<std::shared_ptr<StoredDocument>> doomed;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    // A fresh LOAD supersedes any warm entry (and orphans an in-flight
    // fault-in, which detects the latch mismatch and discards itself).
    warm_.erase(name);
    docs_[name] = std::move(doc);
    EnforceCapacityLocked(name, &doomed);
  }
  FinalizeDoomed(&doomed);
}

Status DocumentStore::LoadFile(const std::string& name,
                               const std::string& path) {
  // Two-step declare + assign: GCC 12's -Wmaybe-uninitialized misfires
  // on the declaration-inside-macro form (bogus warning through the
  // StatusOr move, https://gcc.gnu.org/bugzilla/show_bug.cgi?id=105562;
  // re-verified against g++ 12.2.0 with -DXCQ_WARNINGS_AS_ERRORS=ON).
  // Collapse to one line once the floor compiler is GCC >= 13.
  std::string bytes;
  XCQ_ASSIGN_OR_RETURN(bytes, xml::ReadFileToString(path));
  if (StartsWith(bytes, "XCQI")) {
    XCQ_ASSIGN_OR_RETURN(Instance instance, DeserializeInstance(bytes));
    return LoadInstance(name, std::move(instance));
  }
  return LoadXml(name, std::move(bytes));
}

std::shared_ptr<StoredDocument> DocumentStore::Find(
    const std::string& name) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = docs_.find(name);
  if (it == docs_.end()) {
    load_misses_total_->Increment();
    return nullptr;
  }
  it->second->last_used_.store(++clock_);
  return it->second;
}

Result<std::shared_ptr<StoredDocument>> DocumentStore::Acquire(
    const std::string& name) {
  for (;;) {
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      const auto it = docs_.find(name);
      if (it != docs_.end()) {
        it->second->last_used_.store(++clock_);
        return it->second;
      }
    }
    std::shared_ptr<FaultIn> latch;
    bool loader = false;
    {
      std::unique_lock<std::shared_mutex> lock(mu_);
      const auto it = docs_.find(name);
      if (it != docs_.end()) {  // installed between the two lock grabs
        it->second->last_used_.store(++clock_);
        return it->second;
      }
      const auto wit = warm_.find(name);
      if (wit == warm_.end()) {
        load_misses_total_->Increment();
        return Status::NotFound(
            StrFormat("no document named '%s' is loaded", name.c_str()));
      }
      if (wit->second.inflight == nullptr) {
        wit->second.inflight = std::make_shared<FaultIn>();
        loader = true;
      }
      latch = wit->second.inflight;
    }
    if (loader) {
      const Status status = FaultInDocument(name, latch);
      {
        std::lock_guard<std::mutex> flock(latch->mu);
        latch->done = true;
        latch->status = status;
      }
      latch->cv.notify_all();
      if (!status.ok()) return status;
      continue;  // the document is resident now
    }
    // Single-flight: wait for the loader, then re-resolve. Every waiter
    // of a failed fault-in gets the loader's canonical status.
    std::unique_lock<std::mutex> flock(latch->mu);
    latch->cv.wait(flock, [&latch] { return latch->done; });
    if (!latch->status.ok()) return latch->status;
  }
}

Status DocumentStore::FaultInDocument(const std::string& name,
                                      const std::shared_ptr<FaultIn>& latch) {
  spill_reads_.fetch_add(1);
  uint64_t generation = 0;
  Result<QuerySession> session = Status::Internal("fault-in did not run");
  {
    Result<Instance> instance = spills_.Read(name, &generation);
    if (instance.ok()) {
      session =
          QuerySession::FromInstance(std::move(*instance), options_.session);
    } else {
      session = instance.status();
    }
  }
  if (!session.ok()) {
    warm_misses_total_->Increment();
    // Only a *verified* permanent failure — CRC/size/structural mismatch
    // (kCorruption) or a spill file that is provably gone (kNotFound) —
    // may destroy durable state. Anything else (fd pressure, ENOMEM,
    // permissions) is transient: keep the warm entry and the spill,
    // hand every waiter a retryable error, and let the next Acquire
    // start a fresh fault-in.
    const StatusCode code = session.status().code();
    if (code != StatusCode::kCorruption && code != StatusCode::kNotFound) {
      const Status retryable = Status::IoError(
          StrFormat("warm document '%s' fault-in failed, will retry: %s",
                    name.c_str(), session.status().message().c_str()));
      std::fprintf(stderr, "xcq: %s\n", retryable.ToString().c_str());
      std::unique_lock<std::shared_mutex> lock(mu_);
      const auto wit = warm_.find(name);
      if (wit != warm_.end() && wit->second.inflight == latch) {
        wit->second.inflight = nullptr;
      }
      return retryable;
    }
    // The canonical cold-miss degradation: drop the entry and its
    // artifacts, log one line, fail this document only.
    const Status canonical = Status::Corruption(
        StrFormat("warm document '%s' unrecoverable: %s", name.c_str(),
                  session.status().message().c_str()));
    std::fprintf(stderr, "xcq: %s\n", canonical.ToString().c_str());
    {
      std::unique_lock<std::shared_mutex> lock(mu_);
      const auto wit = warm_.find(name);
      if (wit != warm_.end() && wit->second.inflight == latch) {
        warm_.erase(wit);
      }
    }
    // Generation-guarded: a LOAD or respill that superseded the record
    // mid-fault-in wrote a *new* good spill — never delete that one.
    spills_.RemoveIfGeneration(name, generation);
    return canonical;
  }
  auto doc =
      std::make_shared<StoredDocument>(std::move(*session), name, &registry_);
  doc->owner_ = this;
  // The spill we just read is current — do not rewrite it on the next
  // query unless the label set actually grows.
  doc->MarkSpilledClean();
  doc->last_used_.store(++clock_);
  std::vector<std::shared_ptr<StoredDocument>> doomed;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    const auto wit = warm_.find(name);
    if (wit == warm_.end() || wit->second.inflight != latch) {
      // Superseded by a LOAD or FORGET while the spill was being read;
      // discard our result — waiters re-resolve against current state.
      return Status::OK();
    }
    warm_.erase(wit);
    docs_[name] = std::move(doc);
    warm_hits_total_->Increment();
    EnforceCapacityLocked(name, &doomed);
  }
  FinalizeDoomed(&doomed);
  return Status::OK();
}

bool DocumentStore::Evict(const std::string& name) {
  // Move the document out of the map and let it destruct after the
  // exclusive lock is released: when the map held the last reference,
  // freeing a large instance under `mu_` would stall every concurrent
  // Find() (and whoever called us) for the whole teardown.
  std::shared_ptr<StoredDocument> doomed;
  bool demoted = false;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    const auto it = docs_.find(name);
    if (it == docs_.end()) {
      // Warm-only names have no residency to drop; they stay warm.
      return warm_.count(name) > 0;
    }
    doomed = std::move(it->second);
    docs_.erase(it);
    evictions_total_->Increment();
    // Stop rendering the evicted document's series; cached handles stay
    // valid (clients may still hold the StoredDocument shared_ptr).
    // A later fault-in re-registers them with counters intact.
    registry_.RemoveLabeled("document", name);
    SpillRecord rec;
    if (spills_.Lookup(name, &rec)) {
      // Demote: keep the spill, drop residency. The next Acquire
      // faults the document back in.
      warm_.emplace(name, WarmEntry{});
      demoted = true;
    }
  }
  // Final spill refresh off the store lock: if queries grew the label
  // set or split vertices since the last spill, capture that before the
  // session goes away, so the next fault-in starts split. (A fault-in
  // racing this reads the previous spill — answers from it are correct,
  // it merely lags the newest labels and splits.)
  if (demoted) doomed->PersistIfDirty();
  return true;
}

Status DocumentStore::Persist(const std::string& name) {
  if (!spills_.enabled()) {
    return Status::InvalidArgument(
        "persistence is disabled; start the server with --data-dir");
  }
  std::shared_ptr<StoredDocument> doc;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    const auto it = docs_.find(name);
    if (it != docs_.end()) {
      doc = it->second;
    } else if (warm_.count(name) > 0) {
      return Status::OK();  // warm = already durable; no-op
    }
  }
  if (doc == nullptr) {
    return Status::NotFound(
        StrFormat("no document named '%s' is loaded", name.c_str()));
  }
  return doc->ForcePersist();
}

bool DocumentStore::Forget(const std::string& name) {
  std::shared_ptr<StoredDocument> doomed;
  bool existed = false;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    const auto it = docs_.find(name);
    if (it != docs_.end()) {
      doomed = std::move(it->second);
      docs_.erase(it);
      registry_.RemoveLabeled("document", name);
      existed = true;
    }
    existed = warm_.erase(name) > 0 || existed;
  }
  existed = spills_.Remove(name) || existed;
  if (existed) evictions_total_->Increment();
  return existed;
}

void DocumentStore::FlushSpills() {
  if (!spills_.enabled()) return;
  std::vector<std::shared_ptr<StoredDocument>> docs;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    docs.reserve(docs_.size());
    for (const auto& [name, doc] : docs_) docs.push_back(doc);
  }
  for (const std::shared_ptr<StoredDocument>& doc : docs) {
    doc->PersistIfDirty();
  }
}

std::vector<DocumentInfo> DocumentStore::Stats() const {
  // Copy the document pointers under the shared lock, then take each
  // document's own lock outside of it — Info() can be slow (tree-node
  // counting) and must not block loads.
  std::vector<std::pair<std::string, std::shared_ptr<StoredDocument>>> docs;
  std::vector<std::string> warm_only;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    docs.reserve(docs_.size());
    for (const auto& [name, doc] : docs_) docs.emplace_back(name, doc);
    warm_only.reserve(warm_.size());
    for (const auto& [name, entry] : warm_) warm_only.push_back(name);
  }
  std::vector<DocumentInfo> infos;
  infos.reserve(docs.size() + warm_only.size());
  for (auto& [name, doc] : docs) {
    DocumentInfo info = doc->Info(name);
    info.resident = true;
    SpillRecord rec;
    if (spills_.Lookup(name, &rec)) {
      info.warm = true;
      info.spill_bytes = rec.bytes;
    }
    infos.push_back(std::move(info));
  }
  // Warm entries get a metadata-only row: only the fields the manifest
  // knows are filled, everything else reads zero until a fault-in.
  for (const std::string& name : warm_only) {
    DocumentInfo info;
    info.name = name;
    info.warm = true;
    SpillRecord rec;
    if (spills_.Lookup(name, &rec)) info.spill_bytes = rec.bytes;
    infos.push_back(std::move(info));
  }
  std::sort(infos.begin(), infos.end(),
            [](const DocumentInfo& a, const DocumentInfo& b) {
              return a.name < b.name;
            });
  return infos;
}

size_t DocumentStore::total_bytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return TotalBytesLocked();
}

size_t DocumentStore::document_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return docs_.size();
}

size_t DocumentStore::warm_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return warm_.size();
}

Status DocumentStore::WriteSpill(const std::string& name,
                                 const Instance& instance) {
  const Result<SpillRecord> rec = spills_.Write(name, instance);
  if (!rec.ok()) {
    spill_errors_total_->Increment();
    return rec.status();
  }
  spill_writes_total_->Increment();
  return Status::OK();
}

size_t DocumentStore::TotalBytesLocked() const {
  size_t total = 0;
  for (const auto& [name, doc] : docs_) {
    total += doc->memory_bytes();
  }
  return total;
}

void DocumentStore::EnforceCapacityLocked(
    const std::string& keep,
    std::vector<std::shared_ptr<StoredDocument>>* doomed) {
  if (options_.capacity_bytes == 0) return;
  while (docs_.size() > 1 &&
         TotalBytesLocked() > options_.capacity_bytes) {
    auto victim = docs_.end();
    for (auto it = docs_.begin(); it != docs_.end(); ++it) {
      if (it->first == keep) continue;
      if (victim == docs_.end() ||
          it->second->last_used_.load() <
              victim->second->last_used_.load()) {
        victim = it;
      }
    }
    if (victim == docs_.end()) return;  // only `keep` is left
    evictions_total_->Increment();
    registry_.RemoveLabeled("document", victim->first);
    SpillRecord rec;
    if (spills_.Lookup(victim->first, &rec)) {
      // Demote spill-backed victims to warm entries instead of
      // discarding; FinalizeDoomed refreshes the spill if stale.
      warm_.emplace(victim->first, WarmEntry{});
    }
    doomed->push_back(std::move(victim->second));
    docs_.erase(victim);
  }
}

void DocumentStore::FinalizeDoomed(
    std::vector<std::shared_ptr<StoredDocument>>* doomed) {
  for (const std::shared_ptr<StoredDocument>& doc : *doomed) {
    SpillRecord rec;
    if (spills_.Lookup(doc->name_, &rec)) doc->PersistIfDirty();
  }
  doomed->clear();  // destruction happens here, off the store lock
}

std::string DocumentStore::ScrapeMetrics() {
  // Snapshot the document pointers under the shared lock, then refresh
  // each document's gauges outside it (gauge refresh takes the document
  // lock and counts tree nodes — it must not block loads).
  std::vector<std::shared_ptr<StoredDocument>> docs;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    docs.reserve(docs_.size());
    for (const auto& [name, doc] : docs_) docs.push_back(doc);
  }
  for (const std::shared_ptr<StoredDocument>& doc : docs) {
    doc->UpdateScrapeGauges();
  }
  documents_gauge_->Set(static_cast<double>(document_count()));
  warm_documents_gauge_->Set(static_cast<double>(warm_count()));
  spill_bytes_gauge_->Set(static_cast<double>(spills_.TotalBytes()));
  bytes_gauge_->Set(static_cast<double>(total_bytes()));
  uptime_gauge_->Set(registry_.UptimeSeconds());
  return registry_.RenderPrometheus();
}

}  // namespace xcq::server
