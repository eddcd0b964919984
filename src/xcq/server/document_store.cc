#include "xcq/server/document_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
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

constexpr std::string_view kSpillSuffix = ".xcqi";
constexpr std::string_view kTmpSuffix = ".tmp";

/// A document name as a spill-file stem: every byte outside
/// [a-z0-9_-] is percent-encoded (upper-case hex). The mapping is
/// injective even on a case-insensitive filesystem, and a stem never
/// contains '.', so `<stem>.xcqi` parses back unambiguously.
std::string EscapeName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
        c == '-') {
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

/// The name whose canonical escape is `stem`; false for any stem
/// `EscapeName` never produces (empty, lower-case or malformed hex, an
/// escaped plain byte, a raw '.' or upper-case letter).
bool UnescapeStem(std::string_view stem, std::string* name) {
  name->clear();
  for (size_t i = 0; i < stem.size(); ++i) {
    if (stem[i] != '%') {
      name->push_back(stem[i]);
      continue;
    }
    if (i + 2 >= stem.size()) return false;
    auto hex = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      return -1;
    };
    const int hi = hex(stem[i + 1]);
    const int lo = hex(stem[i + 2]);
    if (hi < 0 || lo < 0) return false;
    name->push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return !name->empty() && EscapeName(*name) == stem;
}

/// Makes a preceding unlink in `dir` durable.
void SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
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

/// Up to the first `n` bytes of `path`; fewer when the file is shorter
/// or unreadable.
std::string ReadPrefix(const std::string& path, size_t n) {
  std::string out(n, '\0');
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return {};
  ssize_t got = 0;
  do {
    got = ::pread(fd, out.data(), n, 0);
  } while (got < 0 && errno == EINTR);
  ::close(fd);
  out.resize(got > 0 ? static_cast<size_t>(got) : 0);
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
  DIR* dir = ::opendir(data_dir.c_str());
  if (dir == nullptr) {
    return Status::IoError(StrFormat("cannot list data dir '%s': %s",
                                     data_dir.c_str(), std::strerror(errno)));
  }
  std::lock_guard<std::mutex> lock(mu_);
  while (const struct dirent* entry = ::readdir(dir)) {
    const std::string_view file = entry->d_name;
    if (file == "." || file == "..") continue;
    const std::string path = data_dir + "/" + std::string(file);
    if (file.ends_with(kTmpSuffix)) {  // a write torn before its rename
      ::unlink(path.c_str());
      continue;
    }
    std::string name;
    if (file.ends_with(kSpillSuffix) &&
        UnescapeStem(file.substr(0, file.size() - kSpillSuffix.size()),
                     &name) &&
        ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      // A spill whose header names another format version is durable
      // data this build cannot read: registered, its first fault-in
      // would delete it as corrupt. A file without a readable header (a
      // torn or zero-byte spill) is registered; the fault-in catches it.
      const uint32_t version =
          InstanceFormatVersion(ReadPrefix(path, kInstanceHeaderSize));
      if (version == 0 || version == kInstanceFormatVersion) {
        spills_[name] = Spill{static_cast<size_t>(st.st_size), ++writes_};
        continue;
      }
    }
    // Never deleted: it may be a file of an older data-dir layout or
    // spill format, or of something else entirely.
    ++stats->errors;
    std::fprintf(stderr,
                 "xcq: recovery: '%s' is not a spill this build reads; left "
                 "in place\n",
                 path.c_str());
  }
  ::closedir(dir);
  dir_ = data_dir;
  return Status::OK();
}

Status SpillManager::CheckName(const std::string& name) const {
  if (!enabled()) return Status::OK();
  const size_t file_bytes =
      EscapeName(name).size() + kSpillSuffix.size() + kTmpSuffix.size();
  if (file_bytes > NAME_MAX) {
    return Status::InvalidArgument(StrFormat(
        "document name of %zu bytes cannot spill: its temp file name "
        "would be %zu bytes, over the %d-byte limit",
        name.size(), file_bytes, NAME_MAX));
  }
  return Status::OK();
}

std::string SpillManager::PathFor(const std::string& name) const {
  return dir_ + "/" + EscapeName(name) + std::string(kSpillSuffix);
}

Status SpillManager::Write(const std::string& name,
                           const Instance& instance) {
  if (!enabled()) {
    return Status::InvalidArgument("spill manager is disabled");
  }
  // Serialize outside the manager lock: callers hold their document
  // lock, so the instance cannot mutate underneath us. The write itself
  // runs under it: two documents of one name share the temp path.
  const std::string bytes = SerializeInstanceChecksummed(instance);
  std::lock_guard<std::mutex> lock(mu_);
  XCQ_RETURN_IF_ERROR(AtomicWriteFile(PathFor(name), bytes));
  spills_[name] = Spill{bytes.size(), ++writes_};
  return Status::OK();
}

Result<Instance> SpillManager::Read(const std::string& name) const {
  XCQ_ASSIGN_OR_RETURN(const std::string bytes, ReadSpillBytes(PathFor(name)));
  return DeserializeInstance(bytes);
}

bool SpillManager::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = spills_.find(name);
  if (it == spills_.end()) return false;
  RemoveLocked(it);
  return true;
}

void SpillManager::RemoveIfUnchanged(const std::string& name,
                                     uint64_t write_count) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = spills_.find(name);
  // A spill rewritten since `write_count` is newer and must survive.
  if (it != spills_.end() && it->second.write_count == write_count) {
    RemoveLocked(it);
  }
}

void SpillManager::RemoveLocked(std::map<std::string, Spill>::iterator it) {
  ::unlink(PathFor(it->first).c_str());
  SyncDir(dir_);
  spills_.erase(it);
}

std::optional<SpillManager::Spill> SpillManager::Lookup(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = spills_.find(name);
  if (it == spills_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> SpillManager::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(spills_.size());
  for (const auto& [name, spill] : spills_) names.push_back(name);
  return names;
}

size_t SpillManager::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [name, spill] : spills_) total += spill.bytes;
  return total;
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
                               DocumentStore* owner)
    : session_(std::move(session)),
      name_(std::move(name)),
      owner_(owner),
      handles_(std::make_unique<Handles>()) {
  RefreshFootprintLocked();  // single-threaded here: no lock needed yet
  // Resolve every handle once; the per-query metrics cost is then only
  // relaxed atomic adds. The full series catalog is documented in
  // docs/OBSERVABILITY.md; the per-family counters and per-document
  // gauges come from kAxisCounters and kDocumentFields.
  obs::Registry& r = *owner_->registry();
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
  } else {
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
    handles_->batches->Increment();
    const uint64_t shared_delta =
        session_.shared_batch_count() - shared_before;
    if (shared_delta > 0) {
      handles_->batches_shared->Increment(static_cast<double>(shared_delta));
    }
    MaybeSpillLocked(/*include_structure=*/false);
  } else {
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
  if (!owner_->spills_.enabled() || !session_.has_instance()) return;
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
  if (!owner_->spills_.enabled()) {
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
      if (value > 0.0) handles_->axis[f][row]->Increment(value);
    }
  }
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
  const double uptime = owner_->registry()->UptimeSeconds();
  if (uptime > 0.0) {
    info.qps = static_cast<double>(queries_served_) / uptime;
  }
  const obs::Histogram::Snapshot snap = handles_->latency->Snap();
  const std::vector<double>& bounds = handles_->latency->bounds();
  info.p50_ms = obs::Histogram::Quantile(snap, bounds, 0.50) * 1e3;
  info.p95_ms = obs::Histogram::Quantile(snap, bounds, 0.95) * 1e3;
  info.p99_ms = obs::Histogram::Quantile(snap, bounds, 0.99) * 1e3;
  return info;
}

void StoredDocument::UpdateScrapeGauges() {
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
      // HELP lines are frozen (docs/OBSERVABILITY.md), so two keep
      // naming the manifest the data dir no longer has.
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
          "Data-dir files left unread by recovery (not a spill, or a spill "
          "of another format version)")),
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
      recovery_.recovered = spills_.Names().size();
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
  XCQ_RETURN_IF_ERROR(spills_.CheckName(name));
  XCQ_ASSIGN_OR_RETURN(QuerySession session,
                       QuerySession::Open(std::move(xml), options_.session));
  auto doc = std::make_shared<StoredDocument>(std::move(session), name, this);
  // No instance exists before the first query of an XML-loaded document,
  // so there is nothing to spill yet; the first query writes it. The
  // spill of a document this one replaces goes now: an EVICT or a
  // restart would otherwise fault the old content back in.
  spills_.Remove(name);
  loads_total_->Increment();
  InstallDocument(name, std::move(doc));
  return Status::OK();
}

Status DocumentStore::LoadInstance(const std::string& name,
                                   Instance instance) {
  XCQ_RETURN_IF_ERROR(spills_.CheckName(name));
  XCQ_ASSIGN_OR_RETURN(
      QuerySession session,
      QuerySession::FromInstance(std::move(instance), options_.session));
  auto doc = std::make_shared<StoredDocument>(std::move(session), name, this);
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
    // A fresh LOAD orphans an in-flight fault-in, which detects the
    // latch mismatch and discards itself.
    faulting_.erase(name);
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
      const auto fit = faulting_.find(name);
      if (fit != faulting_.end()) {
        latch = fit->second;
      } else if (spills_.Lookup(name).has_value()) {
        latch = std::make_shared<FaultIn>();
        faulting_.emplace(name, latch);
        loader = true;
      } else {
        load_misses_total_->Increment();
        return Status::NotFound(
            StrFormat("no document named '%s' is loaded", name.c_str()));
      }
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

void DocumentStore::ReleaseLatch(const std::string& name,
                                 const std::shared_ptr<FaultIn>& latch) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  const auto fit = faulting_.find(name);
  if (fit != faulting_.end() && fit->second == latch) faulting_.erase(fit);
}

Status DocumentStore::FaultInDocument(const std::string& name,
                                      const std::shared_ptr<FaultIn>& latch) {
  spill_reads_.fetch_add(1);
  // Taken before the read: a LOAD or PERSIST that rewrites the spill
  // while it is read moves the write count, and the rewritten spill
  // must survive a failed read of its predecessor.
  const std::optional<SpillManager::Spill> spill = spills_.Lookup(name);
  Result<QuerySession> session = Status::Internal("fault-in did not run");
  {
    Result<Instance> instance = spills_.Read(name);
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
    // permissions) is transient: keep the spill (the document stays
    // warm), hand every waiter a retryable error, and let the next
    // Acquire start a fresh fault-in.
    const StatusCode code = session.status().code();
    if (code != StatusCode::kCorruption && code != StatusCode::kNotFound) {
      const Status retryable = Status::IoError(
          StrFormat("warm document '%s' fault-in failed, will retry: %s",
                    name.c_str(), session.status().message().c_str()));
      std::fprintf(stderr, "xcq: %s\n", retryable.ToString().c_str());
      ReleaseLatch(name, latch);
      return retryable;
    }
    // The canonical cold-miss degradation: drop the spill, log one
    // line, fail this document only. The spill goes before the latch,
    // so no second fault-in can start on the corrupt file.
    const Status canonical = Status::Corruption(
        StrFormat("warm document '%s' unrecoverable: %s", name.c_str(),
                  session.status().message().c_str()));
    std::fprintf(stderr, "xcq: %s\n", canonical.ToString().c_str());
    if (spill.has_value()) {
      spills_.RemoveIfUnchanged(name, spill->write_count);
    }
    ReleaseLatch(name, latch);
    return canonical;
  }
  auto doc = std::make_shared<StoredDocument>(std::move(*session), name, this);
  // The spill we just read is current — do not rewrite it on the next
  // query unless the label set actually grows.
  doc->MarkSpilledClean();
  doc->last_used_.store(++clock_);
  std::vector<std::shared_ptr<StoredDocument>> doomed;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    const auto fit = faulting_.find(name);
    if (fit == faulting_.end() || fit->second != latch) {
      // Superseded by a LOAD or FORGET while the spill was being read;
      // discard our result — waiters re-resolve against current state.
      return Status::OK();
    }
    faulting_.erase(fit);
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
      return spills_.Lookup(name).has_value();
    }
    doomed = std::move(it->second);
    docs_.erase(it);
    evictions_total_->Increment();
    // Stop rendering the evicted document's series; cached handles stay
    // valid (clients may still hold the StoredDocument shared_ptr).
    // A later fault-in re-registers them with counters intact.
    registry_.RemoveLabeled("document", name);
    // Demote: keep the spill, drop residency. The next Acquire faults
    // the document back in.
    demoted = spills_.Lookup(name).has_value();
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
    } else if (spills_.Lookup(name).has_value()) {
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
  // The spill goes first: once it is gone no new fault-in can start,
  // and one already reading it is superseded below.
  bool existed = spills_.Remove(name);
  std::shared_ptr<StoredDocument> doomed;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    const auto it = docs_.find(name);
    if (it != docs_.end()) {
      doomed = std::move(it->second);
      docs_.erase(it);
      registry_.RemoveLabeled("document", name);
      existed = true;
    }
    faulting_.erase(name);
  }
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
    for (std::string& name : spills_.Names()) {
      if (docs_.count(name) == 0) warm_only.push_back(std::move(name));
    }
  }
  std::vector<DocumentInfo> infos;
  infos.reserve(docs.size() + warm_only.size());
  for (auto& [name, doc] : docs) {
    DocumentInfo info = doc->Info(name);
    info.resident = true;
    if (const auto spill = spills_.Lookup(name)) {
      info.warm = true;
      info.spill_bytes = spill->bytes;
    }
    infos.push_back(std::move(info));
  }
  // Warm entries get a metadata-only row: only the fields the spill
  // catalog knows are filled, everything else reads zero until a
  // fault-in.
  for (const std::string& name : warm_only) {
    DocumentInfo info;
    info.name = name;
    info.warm = true;
    if (const auto spill = spills_.Lookup(name)) {
      info.spill_bytes = spill->bytes;
    }
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
  size_t warm = 0;
  for (const std::string& name : spills_.Names()) {
    if (docs_.count(name) == 0) ++warm;
  }
  return warm;
}

Status DocumentStore::WriteSpill(const std::string& name,
                                 const Instance& instance) {
  const Status status = spills_.Write(name, instance);
  if (!status.ok()) {
    spill_errors_total_->Increment();
    return status;
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
    // A spill-backed victim stays warm; FinalizeDoomed refreshes its
    // spill if stale.
    registry_.RemoveLabeled("document", victim->first);
    doomed->push_back(std::move(victim->second));
    docs_.erase(victim);
  }
}

void DocumentStore::FinalizeDoomed(
    std::vector<std::shared_ptr<StoredDocument>>* doomed) {
  for (const std::shared_ptr<StoredDocument>& doc : *doomed) {
    if (spills_.Lookup(doc->name_).has_value()) doc->PersistIfDirty();
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
