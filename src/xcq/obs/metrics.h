#ifndef XCQ_OBS_METRICS_H_
#define XCQ_OBS_METRICS_H_

/// \file metrics.h
/// The serving stack's metrics registry (docs/OBSERVABILITY.md).
///
/// Three metric kinds, all with the same hot-path contract — a *write*
/// (Increment / Observe / Set) is one or two relaxed atomic operations,
/// never a lock, never an allocation:
///
///  * `Counter`   — monotonic double-valued total (Prometheus counter),
///  * `Gauge`     — last-write-wins double (Prometheus gauge),
///  * `Histogram` — fixed-bucket distribution with cumulative-bucket
///                  rendering and p50/p95/p99 readout.
///
/// Each counter and histogram bucket is one atomic cell, not striped:
/// per-document series are written under the document's lock, the rest
/// at most once per request. Every access is a relaxed `std::atomic`
/// operation (counters are statistically, not causally, ordered), so
/// the registry is TSAN-clean by construction; tests/obs_test.cc runs
/// it in the CI TSAN job.
///
/// Series identity is `name + sorted label pairs` (e.g. document /
/// axis / phase). Handle creation (`Registry::GetCounter` etc.) takes a
/// registry mutex and may allocate — callers resolve handles once (at
/// document load, at server start) and keep them; only the resolved
/// handle is touched per query. `Registry::RenderPrometheus()` emits
/// the text exposition format scraped by the daemon's `METRICS` verb
/// and validated by tools/check_metrics_exposition.py.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xcq::obs {

/// \brief Sorted `key=value` pairs identifying one series of a metric.
/// Construction sorts by key; equal keys keep their relative order (the
/// registry treats duplicate keys as distinct, but don't do that).
class LabelSet {
 public:
  LabelSet() = default;
  LabelSet(std::initializer_list<std::pair<std::string, std::string>> kv);

  void Add(std::string key, std::string value);

  const std::vector<std::pair<std::string, std::string>>& pairs() const {
    return pairs_;
  }
  bool empty() const { return pairs_.empty(); }

  /// True when some label has exactly this key and value.
  bool Has(std::string_view key, std::string_view value) const;

  /// `{key="value",...}` with Prometheus escaping; "" when empty.
  std::string Render() const;

  bool operator<(const LabelSet& other) const { return pairs_ < other.pairs_; }
  bool operator==(const LabelSet& other) const {
    return pairs_ == other.pairs_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> pairs_;
};

namespace internal {

/// Relaxed CAS-loop add — `std::atomic<double>::fetch_add` is C++20 but
/// not yet lock-free everywhere; the loop compiles to the same LL/SC or
/// CMPXCHG retry and stays TSAN-clean.
inline void AtomicAdd(std::atomic<double>* cell, double v) {
  double cur = cell->load(std::memory_order_relaxed);
  while (!cell->compare_exchange_weak(cur, cur + v,
                                      std::memory_order_relaxed)) {
  }
}

}  // namespace internal

/// \brief Monotonic total. Increment is one relaxed atomic add.
class Counter {
 public:
  void Increment(double v = 1.0) { internal::AtomicAdd(&value_, v); }

  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Last-write-wins value. Gauges are set by one owner (typically
/// on scrape), read by the renderer.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double v) { internal::AtomicAdd(&value_, v); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Fixed-bucket histogram. `Observe` adds to the first bucket
/// whose upper bound is >= the value (relaxed); rendering
/// emits Prometheus cumulative `_bucket{le=...}` series plus `_sum` /
/// `_count`, and `Quantile` interpolates p50/p95/p99 the same way
/// `histogram_quantile()` would.
class Histogram {
 public:
  /// A read-side snapshot: per-bucket counts (index-aligned with
  /// `bounds()`, plus one overflow slot), total count, and value sum.
  struct Snapshot {
    std::vector<uint64_t> buckets;
    uint64_t count = 0;
    double sum = 0.0;
  };

  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  /// Upper bucket bounds, ascending; the implicit +Inf bucket follows.
  const std::vector<double>& bounds() const { return bounds_; }

  Snapshot Snap() const;

  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// winning bucket; NaN-free — an empty histogram reads 0, and mass in
  /// the +Inf bucket clamps to the last finite bound.
  static double Quantile(const Snapshot& snap,
                         const std::vector<double>& bounds, double q);
  double Quantile(double q) const { return Quantile(Snap(), bounds_, q); }

  /// The default latency bucket ladder: 10µs .. 10s, 1-2.5-5 decades.
  static std::vector<double> LatencyBounds();

 private:
  std::vector<double> bounds_;
  /// Per-bucket counts, index-aligned with `bounds_` plus the +Inf slot.
  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<double> sum_{0.0};
};

/// \brief The process-wide series table.
///
/// Get* registers on first use and returns the existing handle on every
/// later call with the same (name, labels); handles stay valid for the
/// registry's lifetime (metrics are held by unique_ptr, and removal of
/// a series only unlinks it from rendering — see RemoveLabeled).
class Registry {
 public:
  Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// `help` is kept from the first registration of `name`.
  Counter* GetCounter(std::string_view name, LabelSet labels,
                      std::string_view help = {});
  Gauge* GetGauge(std::string_view name, LabelSet labels,
                  std::string_view help = {});
  /// Bounds must agree across series of one name; the first caller wins
  /// and later mismatching bounds are ignored (the name's ladder is a
  /// property of the metric, not of the series).
  Histogram* GetHistogram(std::string_view name, LabelSet labels,
                          std::vector<double> bounds,
                          std::string_view help = {});

  /// Drops every series (of any metric) carrying label `key=value` —
  /// the daemon unlists a document's series when it is evicted so
  /// scrapes do not report gauges for documents that no longer exist.
  /// The metric objects stay alive (handles may be cached), they just
  /// stop rendering.
  void RemoveLabeled(std::string_view key, std::string_view value);

  /// The text exposition format: `# HELP` / `# TYPE` per metric, one
  /// sample line per series, histograms expanded to cumulative buckets
  /// plus `_sum` / `_count` and companion `<name>_p50/p95/p99` gauges.
  std::string RenderPrometheus() const;

  /// Seconds since the registry was constructed (steady clock) — the
  /// uptime used for on-scrape rates like per-document QPS.
  double UptimeSeconds() const;

  /// Test/readout helpers: the current value of one series; 0 / absent
  /// series read as 0.
  double CounterValue(std::string_view name, const LabelSet& labels) const;
  double GaugeValue(std::string_view name, const LabelSet& labels) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    LabelSet labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    bool removed = false;
  };

  struct Metric {
    Kind kind = Kind::kCounter;
    std::string help;
    std::vector<Series> series;  ///< insertion order; rendering sorts.
  };

  Series* FindOrCreateLocked(std::string_view name, Kind kind,
                             LabelSet labels, std::string_view help);

  mutable std::shared_mutex mu_;
  std::map<std::string, Metric, std::less<>> metrics_;
  const double epoch_seconds_;  ///< steady-clock origin for UptimeSeconds.
};

}  // namespace xcq::obs

#endif  // XCQ_OBS_METRICS_H_
