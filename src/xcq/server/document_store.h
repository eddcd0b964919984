#ifndef XCQ_SERVER_DOCUMENT_STORE_H_
#define XCQ_SERVER_DOCUMENT_STORE_H_

/// \file document_store.h
/// Named cache of compressed instances for the query daemon.
///
/// The paper's deployment argument (Sec. 2.3/4): compress once, keep the
/// small DAG resident, and answer an unbounded query stream without ever
/// touching the original XML again. `DocumentStore` is that residence: a
/// map from names to `StoredDocument`s, each wrapping a `QuerySession`
/// whose accumulated instance is the cached artifact.
///
/// Concurrency model:
///  * The store's map is guarded by a `std::shared_mutex` — lookups and
///    STATS take it shared; LOAD / EVICT take it exclusive.
///  * Each `StoredDocument` has its own mutex. Query evaluation *mutates*
///    the instance (splits, result relations, label merges), so
///    evaluation holds the document lock exclusively; concurrent queries
///    against one document serialize per document while different
///    documents proceed in parallel. This is what makes a concurrent
///    query storm bit-identical to single-threaded evaluation.
///
/// Capacity: `StoreOptions::capacity_bytes` bounds the summed
/// `Instance::MemoryFootprint()` of cached instances. Loads beyond the
/// budget evict least-recently-used documents (never the one being
/// loaded). Footprints are refreshed after every evaluation, since
/// splitting queries grow instances; with
/// `SessionOptions::minimize_after_query` the refresh happens after the
/// re-minimization pass (incremental or full), so the accounting sees
/// the reclaimed size — including the in-instance hash-cons cache the
/// incremental pass keeps (`MinimizeCache`), which is real heap.
///
/// Durability (docs/SERVER.md §Persistence): with a non-empty
/// `StoreOptions::data_dir` every document whose compressed instance
/// exists is also spilled to disk as a checksummed `.xcqi` file, and a
/// manifest maps names to spill files. A document is then in one of
/// three states:
///
///   resident — a `StoredDocument` in `docs_`; serves queries.
///   warm     — no session in memory, but a spill + manifest entry; the
///              first `Acquire()` faults it back in via `FromInstance`
///              (zero source re-parses), single-flight per document.
///   cold     — nothing; only LOAD can (re)create it.
///
/// Restart replays the manifest and registers warm entries lazily, so
/// startup is O(manifest), not O(corpus). Capacity eviction and EVICT
/// demote a spill-backed resident to warm instead of discarding it.
/// Spills are rewritten whenever a query grows the tracked label set,
/// so a SIGKILL loses at most the labels merged since the last spill —
/// never the document. Demotion and `FlushSpills` also rewrite a spill
/// whose instance structure moved since it was written (the splits of
/// partial decompression), so the next fault-in starts at the split
/// fixpoint instead of replaying them. All spill/manifest writes are atomic
/// (temp + fsync + rename); recovery tolerates any torn artifact by
/// degrading that one document to a cold miss.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "xcq/obs/metrics.h"
#include "xcq/obs/trace.h"
#include "xcq/session/query_session.h"
#include "xcq/util/result.h"

namespace xcq::server {

/// \brief Structured query-trace logging (docs/OBSERVABILITY.md §4):
/// which queries get their phase trace rendered as a one-line JSON
/// record, and where the line goes.
struct TraceOptions {
  enum class Mode {
    kOff,   ///< No trace output (the default).
    kSlow,  ///< Only queries slower than `slow_threshold_s` end to end.
    kAll,   ///< Every query.
  };
  Mode mode = Mode::kOff;
  double slow_threshold_s = 0.0;
  /// Receives each rendered trace line (no trailing newline). Null =
  /// write to stderr. Must be thread-safe: traces are emitted from
  /// whatever thread served the query.
  std::function<void(std::string_view)> sink;
};

struct StoreOptions {
  /// Soft cap on the summed instance footprint in bytes; 0 = unlimited.
  size_t capacity_bytes = 0;
  /// Session configuration applied to every stored document.
  SessionOptions session;
  /// Per-query trace logging; off by default.
  TraceOptions trace;
  /// Spill directory for durable documents; "" disables durability.
  /// Created (one level) if absent. See docs/SERVER.md §Persistence.
  std::string data_dir;
  /// Replay the manifest at construction and register recovered
  /// documents as warm entries. With `false` the catalog is still
  /// loaded (so later spills do not orphan prior ones) but nothing is
  /// registered — the store starts cold.
  bool warm_start = true;
};

/// \brief One durable spill as the manifest tracks it.
struct SpillRecord {
  std::string file;      ///< File name inside the data dir.
  size_t bytes = 0;      ///< Size of the spill file on disk.
  uint32_t crc = 0;      ///< CRC-32 of the whole file.
  uint64_t generation = 0;  ///< Monotonic per-store write counter.
  std::vector<std::string> labels;  ///< Tracked labels (informational).
};

/// \brief What the recovery scan found at startup.
struct RecoveryStats {
  size_t recovered = 0;  ///< Warm entries registered from the manifest.
  size_t errors = 0;     ///< Manifest lines / artifacts skipped.
  double seconds = 0.0;  ///< Wall time of the scan.
};

/// \brief One row of STATS: a snapshot of a cached document. Each field
/// renders through one row of `kDocumentFields` (document_store.cc), so
/// a new field is one member, its fill in `StoredDocument::Info` and a row.
struct DocumentInfo {
  std::string name;
  size_t memory_bytes = 0;        ///< Instance::MemoryFootprint().
  size_t vertex_count = 0;        ///< DAG vertices (including splits).
  uint64_t rle_edges = 0;         ///< RLE edges.
  uint64_t tree_nodes = 0;        ///< TreeNodeCount() — what the DAG stands for.
  size_t tracked_tags = 0;        ///< Tag relations present.
  size_t tracked_patterns = 0;    ///< String-constraint relations present.
  uint64_t queries_served = 0;    ///< Single queries evaluated.
  uint64_t batches_served = 0;    ///< BATCH requests evaluated.
  uint64_t batches_shared = 0;    ///< BATCHes served with shared sweeps.
  uint64_t source_parses = 0;     ///< Scans of the original document.
  bool has_source = false;        ///< False for `.xcqi`-loaded documents.
  engine::AxisFamilyStats sweeps;  ///< Summed over the axis families.
  size_t scratch_resident = 0;    ///< Scratch-pool slots currently held.
  size_t scratch_capacity = 0;    ///< Scratch-pool cap (METRICS only).
  uint64_t scratch_hits = 0;      ///< Scratch checkouts with no allocation.
  uint64_t scratch_allocs = 0;    ///< Scratch checkouts that allocated.
  uint64_t traversal_builds = 0;  ///< Traversal-cache (re)builds.
  /// Always 0 (there is no path summary); kept because
  /// servebench/check.cc gates on it.
  uint64_t summary_builds = 0;
  double label_seconds = 0.0;     ///< Cumulative label/merge time.
  double minimize_seconds = 0.0;  ///< Cumulative post-query reclaim time.
  double qps = 0.0;               ///< queries / registry uptime.
  double share_rate = 0.0;        ///< batches_shared / batches_served.
  double p50_ms = 0.0;            ///< Query latency percentiles, from the
  double p95_ms = 0.0;            ///  same histogram METRICS exports.
  double p99_ms = 0.0;
  uint64_t queued = 0;            ///< Tasks waiting in the service queue for
                                  ///  this document (filled by STATS, not by
                                  ///  StoredDocument::Info — the store does
                                  ///  not know the service).
  uint64_t inflight = 0;          ///< Tasks executing for this document now.
  uint64_t shed = 0;              ///< Tasks shed expired at dequeue, ever
                                  ///  (cumulative; filled by STATS from the
                                  ///  service, like queued/inflight).
  uint64_t cancelled = 0;         ///< Tasks cancelled (client disconnect),
                                  ///  ever; filled by STATS likewise.
  bool warm = false;              ///< A durable spill backs this document.
  bool resident = false;          ///< The session is in memory.
  size_t spill_bytes = 0;         ///< Spill file size on disk (0 = none).
};

/// \brief One STATS detail line: the name, then `key=value` per STATS row
/// of `kDocumentFields`, in table order. That order is FROZEN
/// (docs/SERVER.md): scripts parse by position or key, so new rows are
/// appended and existing ones never move.
std::string FormatDocumentInfo(const DocumentInfo& info);

/// \brief The durable side of the store: spill files plus the manifest
/// that catalogs them, all writes crash-safe (temp + fsync + rename).
/// Thread-safe behind its own mutex, which is a leaf in the lock order
/// (store lock or document lock may be held when calling in; the spill
/// manager never calls out).
class SpillManager {
 public:
  /// Prepares `data_dir` (created if absent, one level) and parses the
  /// manifest fault-tolerantly: unreadable lines are skipped and
  /// counted in `stats->errors`, torn `.tmp` artifacts and
  /// unreferenced spill files are cleaned up (cleanup is skipped when
  /// the manifest itself is unusable — then nothing is trusted enough
  /// to delete). A hard failure (directory not creatable) leaves the
  /// manager disabled.
  Status Init(const std::string& data_dir, RecoveryStats* stats);

  bool enabled() const { return !dir_.empty(); }

  /// Serializes `instance` and atomically writes it as `name`'s spill
  /// under a fresh generation, rewrites the manifest, then removes the
  /// superseded generation's file.
  Result<SpillRecord> Write(const std::string& name,
                            const Instance& instance);

  /// Reads and fully verifies `name`'s spill (size + CRC against the
  /// manifest, then footer + structural validation). A read that races
  /// a respill (Write unlinks the superseded generation's file) retries
  /// against the fresh catalog record. `generation`, when non-null,
  /// receives the generation of the record the final attempt used
  /// (0 when no record existed) so callers can make removal decisions
  /// race-free via `RemoveIfGeneration`. Failure codes: `kCorruption`
  /// for verified mismatches, `kNotFound` for an absent record or a
  /// verified-missing file, `kIoError` for transient read failures
  /// (fd pressure and the like — the spill is presumed intact).
  Result<Instance> Read(const std::string& name,
                        uint64_t* generation = nullptr) const;

  /// Drops `name`'s spill file and manifest entry. False if absent.
  bool Remove(const std::string& name);

  /// Like `Remove`, but a no-op unless the cataloged record still has
  /// `generation` — a concurrent Write that superseded it wrote a newer
  /// spill, which must survive.
  bool RemoveIfGeneration(const std::string& name, uint64_t generation);

  bool Lookup(const std::string& name, SpillRecord* out) const;

  /// Names with a durable spill, sorted.
  std::vector<std::string> Names() const;

  /// Summed on-disk size of all cataloged spills.
  size_t TotalBytes() const;

 private:
  Status RewriteManifestLocked();
  /// Shared tail of Remove/RemoveIfGeneration; mu_ must be held.
  bool RemoveEntryLocked(std::map<std::string, SpillRecord>::iterator it);

  std::string dir_;  ///< "" until Init succeeds (manager disabled).
  mutable std::mutex mu_;
  std::map<std::string, SpillRecord> records_;
  uint64_t next_generation_ = 1;
};

/// \brief A cached compressed document: a `QuerySession` plus serving
/// counters, evaluated under the document's own lock.
class StoredDocument {
 public:
  /// `registry` may be null (no metrics; for embedders that only want
  /// the cache). With a registry, every per-document handle is resolved
  /// here, once — the per-query cost of metrics is then only relaxed
  /// atomic adds on the cached handles.
  StoredDocument(QuerySession session, std::string name,
                 obs::Registry* registry);
  ~StoredDocument();

  /// Evaluates one query (exclusive document lock). `control` carries
  /// the request's cancellation token and budget overrides; a cancelled
  /// evaluation fails with `kCancelled` / `kDeadlineExceeded` and leaves
  /// the cached instance consistent — the document keeps serving.
  Result<QueryOutcome> Query(std::string_view query_text,
                             const QueryControl& control = {});

  /// Evaluates a batch with one merged label pass (exclusive lock held
  /// across the whole batch, so a batch is atomic w.r.t. other clients).
  Result<std::vector<QueryOutcome>> Batch(
      const std::vector<std::string>& query_texts,
      const QueryControl& control = {});

  DocumentInfo Info(std::string name) const;

  /// Refreshes this document's scrape-time gauges (instance footprint,
  /// scratch-pool residency, cache build counts, QPS, share rate,
  /// closed-form ratios) from the current state; called by
  /// `DocumentStore::ScrapeMetrics` right before rendering. No-op
  /// without a registry.
  void UpdateScrapeGauges();

  /// Current instance footprint in bytes (0 before the first query of an
  /// XML-loaded document). Reads a cached value refreshed after every
  /// evaluation — never blocks on the document lock, so the store's
  /// capacity sweep cannot stall behind a slow in-flight query.
  size_t memory_bytes() const { return footprint_.load(); }

 private:
  friend class DocumentStore;

  /// Resolved metric handles (document_store.cc); null without a
  /// registry.
  struct Handles;

  /// Recomputes the cached footprint; mu_ must be held.
  void RefreshFootprintLocked();

  /// Rewrites this document's spill when the tracked label set grew
  /// since the last spill (or none was written yet) and, with
  /// `include_structure`, when the instance's structure generation
  /// moved since then; mu_ must be held. No-op without an owning store,
  /// without durability, or before the session has built an instance.
  /// Write failures are logged once per document and serving continues
  /// (durability degrades, availability does not).
  void MaybeSpillLocked(bool include_structure);

  /// Spill-if-dirty with its own locking, on labels *and* structure —
  /// the store calls this on load, on demotion, and from FlushSpills().
  /// Queries check labels only: a split never costs a serialize + fsync
  /// on the request path, and a crash merely leaves the older, unsplit
  /// spill, which answers identically.
  void PersistIfDirty();

  /// Unconditionally rewrites the spill (PERSIST verb). Fails with
  /// kInvalidArgument before the first query of an XML-loaded document
  /// (there is no compiled instance to persist yet).
  Status ForcePersist();

  /// Marks the current label set and structure generation as already
  /// spilled — set after a fault-in so neither the first query nor the
  /// next demotion rewrites the spill it was just read from.
  void MarkSpilledClean();

  /// Tracked tag + pattern relations; mu_ must be held.
  size_t TrackedLabelsLocked() const;

  /// Records the current instance as the spilled one; mu_ must be held
  /// and the session must have an instance.
  void MarkSpilledLocked();

  /// Folds one successful outcome into the serving totals and the
  /// resolved metric handles (per-axis counters, phase seconds, latency
  /// histogram); mu_ must be held. `elapsed_seconds` is this query's
  /// share of serving time.
  void RecordOutcomeLocked(const QueryOutcome& outcome,
                           double elapsed_seconds);

  mutable std::mutex mu_;
  QuerySession session_;
  std::string name_;
  obs::Registry* registry_;  ///< Null = metrics disabled.
  std::unique_ptr<Handles> handles_;
  /// The owning store, for spill writes; null for store-less embedders.
  class DocumentStore* owner_ = nullptr;
  bool spilled_ = false;          ///< A spill of this session exists.
  size_t spilled_labels_ = 0;     ///< Tracked label count at last spill.
  /// Instance::structure_generation() at last spill.
  uint64_t spilled_generation_ = 0;
  bool spill_error_logged_ = false;
  std::atomic<size_t> footprint_{0};
  /// LRU stamp, owned by the store; atomic so Find() can bump it under
  /// the store's *shared* lock.
  std::atomic<uint64_t> last_used_{0};
  uint64_t queries_served_ = 0;
  uint64_t batches_served_ = 0;
  /// Cumulative sweep counters over all served queries, by family;
  /// STATS reports their sums.
  engine::AxisFamilyStats sweep_totals_[engine::kAxisFamilyCount];
  double label_seconds_ = 0.0;
  double minimize_seconds_ = 0.0;
};

/// \brief Thread-safe name → StoredDocument map with LRU eviction.
class DocumentStore {
 public:
  explicit DocumentStore(StoreOptions options = {});

  /// Compresses `xml` under `name` (replacing any previous document of
  /// that name). The text is retained so later queries can merge missing
  /// labels in.
  Status LoadXml(const std::string& name, std::string xml);

  /// Caches an already-built instance under `name` with no source text
  /// behind it; queries needing absent labels fail instead of parsing.
  Status LoadInstance(const std::string& name, Instance instance);

  /// Loads `path` as either a serialized `.xcqi` instance or raw XML,
  /// sniffing the format from the leading bytes.
  Status LoadFile(const std::string& name, const std::string& path);

  /// The *resident* document, bumping its LRU stamp; null if absent or
  /// warm. Takes the store lock shared: lookups from concurrent queries
  /// never serialize on each other.
  std::shared_ptr<StoredDocument> Find(const std::string& name);

  /// The document for serving: a resident hit is as cheap as `Find`; a
  /// warm entry is faulted back in from its spill via `FromInstance`
  /// (single-flight — N concurrent acquires of one warm document do one
  /// spill read, everyone else blocks on the loader). A spill that
  /// fails *verification* (CRC/size/structural mismatch, or a file that
  /// is provably gone) degrades to a cold miss: the entry and its
  /// artifacts are dropped, one canonical line is logged, and every
  /// waiter gets the same `kCorruption` status — other documents are
  /// unaffected. A *transient* read failure (fd pressure, ENOMEM)
  /// never destroys durable state: the warm entry and spill stay, and
  /// waiters get a retryable `kIoError` — the next Acquire starts a
  /// fresh fault-in. `kNotFound` for names that are neither.
  Result<std::shared_ptr<StoredDocument>> Acquire(const std::string& name);

  /// Drops `name`'s residency. With durability, a spill-backed document
  /// is *demoted* to a warm entry (its spill is refreshed if the label
  /// set grew or the structure moved since the last write) and the next
  /// Acquire faults it back in; without, this is a full drop as before.
  /// False if the name is neither resident nor warm (warm-only names
  /// return true and stay warm). The evicted document's metric series
  /// stop rendering (RemoveLabeled), and `evictions_total` moves. When
  /// the map held the last reference, the document is destroyed on the
  /// calling thread *after* the store lock is released, so a large
  /// teardown never blocks concurrent `Find()`s.
  bool Evict(const std::string& name);

  /// Forces a spill write for resident `name` (PERSIST verb); a
  /// warm-only name is already durable and succeeds as a no-op.
  /// `kNotFound` for unknown names, `kInvalidArgument` when durability
  /// is off or the document has no compiled instance yet.
  Status Persist(const std::string& name);

  /// Removes `name` everywhere: residency, warm entry, spill file, and
  /// manifest entry (FORGET verb). False if nothing existed.
  bool Forget(const std::string& name);

  /// Rewrites every resident document's spill that is stale in labels
  /// or structure (graceful shutdown hook; the destructor deliberately
  /// does NOT do this, so a destructed store models a hard stop). No-op
  /// without durability.
  void FlushSpills();

  /// Snapshot of every cached document, name order.
  std::vector<DocumentInfo> Stats() const;

  /// The METRICS scrape: refreshes every document's gauges and the
  /// store-level gauges, then renders the registry as Prometheus text
  /// exposition format (docs/OBSERVABILITY.md).
  std::string ScrapeMetrics();

  /// The store's metrics registry (never null; owned by the store, so
  /// it outlives every StoredDocument handle the store hands out).
  obs::Registry* registry() { return &registry_; }
  const obs::Registry* registry() const { return &registry_; }

  /// Summed instance footprint of all cached documents.
  size_t total_bytes() const;

  size_t document_count() const;

  /// Warm (spill-backed, non-resident) entries right now.
  size_t warm_count() const;

  /// Spill reads performed since construction (fault-ins, successful or
  /// not) — the single-flight tests pin this to 1 per warm document.
  uint64_t spill_reads() const { return spill_reads_.load(); }

  /// What the startup recovery scan found; zeros without `data_dir`.
  const RecoveryStats& recovery_stats() const { return recovery_; }

  /// OK when durability is off or the data dir initialized cleanly;
  /// the error otherwise (the store then runs memory-only).
  const Status& durability_status() const { return durability_status_; }

  bool durable() const { return spills_.enabled(); }

  const StoreOptions& options() const { return options_; }

 private:
  friend class StoredDocument;

  /// Single-flight latch for one warm document's fault-in.
  struct FaultIn {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
  };
  /// A warm (spill-backed, non-resident) entry: presence marks the
  /// state, `inflight` is non-null while a fault-in runs. The spill
  /// metadata itself lives in the SpillManager's catalog.
  struct WarmEntry {
    std::shared_ptr<FaultIn> inflight;
  };

  /// Must hold `mu_` exclusively. Evicts LRU entries (excluding `keep`)
  /// until the footprint fits `capacity_bytes`. Spill-backed victims
  /// are demoted to warm entries. Victims are moved into `doomed`
  /// instead of destroyed, so the caller can release `mu_` before the
  /// (potentially large) frees run — via `FinalizeDoomed`, which also
  /// refreshes stale spills of demoted documents first.
  void EnforceCapacityLocked(const std::string& keep,
                             std::vector<std::shared_ptr<StoredDocument>>*
                                 doomed);
  /// Runs after `mu_` is released: final spill refresh for spill-backed
  /// victims, then destruction.
  void FinalizeDoomed(std::vector<std::shared_ptr<StoredDocument>>* doomed);
  size_t TotalBytesLocked() const;

  /// Registers `doc` under `name` (exclusive lock inside), displacing
  /// any warm entry, and enforces capacity. Shared tail of the Load*
  /// paths and the fault-in.
  void InstallDocument(const std::string& name,
                       std::shared_ptr<StoredDocument> doc);

  /// The loader side of Acquire: reads the spill, rebuilds the session,
  /// installs the document. `latch` is this fault-in's single-flight
  /// latch; a warm entry whose latch no longer matches was superseded
  /// (LOAD/FORGET raced) and the result is quietly discarded.
  Status FaultInDocument(const std::string& name,
                         const std::shared_ptr<FaultIn>& latch);

  /// Spill write + metrics, called from StoredDocument under its lock.
  Status WriteSpill(const std::string& name, const Instance& instance);

  /// Declared first: documents cache raw handle pointers into the
  /// registry, so it must outlive `docs_` during destruction.
  obs::Registry registry_;
  StoreOptions options_;
  /// Store-level handles, resolved once in the constructor.
  obs::Counter* loads_total_;
  obs::Counter* load_misses_total_;
  obs::Counter* evictions_total_;
  obs::Counter* spill_writes_total_;
  obs::Counter* spill_errors_total_;
  obs::Counter* warm_hits_total_;
  obs::Counter* warm_misses_total_;
  obs::Counter* recovered_total_;
  obs::Counter* recovery_errors_total_;
  obs::Gauge* documents_gauge_;
  obs::Gauge* warm_documents_gauge_;
  obs::Gauge* spill_bytes_gauge_;
  obs::Gauge* bytes_gauge_;
  obs::Gauge* uptime_gauge_;
  obs::Gauge* recovery_seconds_gauge_;
  SpillManager spills_;
  RecoveryStats recovery_;
  Status durability_status_;
  std::atomic<uint64_t> spill_reads_{0};
  mutable std::shared_mutex mu_;
  /// Ordered so STATS is stable.
  std::map<std::string, std::shared_ptr<StoredDocument>> docs_;
  /// Warm entries; disjoint from `docs_` keys by invariant.
  std::map<std::string, WarmEntry> warm_;
  std::atomic<uint64_t> clock_{0};
};

}  // namespace xcq::server

#endif  // XCQ_SERVER_DOCUMENT_STORE_H_
