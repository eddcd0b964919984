#include "xcq/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>

#include "xcq/util/string_util.h"
#include "xcq/util/timer.h"

namespace xcq::obs {

// --- LabelSet --------------------------------------------------------------

LabelSet::LabelSet(
    std::initializer_list<std::pair<std::string, std::string>> kv) {
  for (const auto& [key, value] : kv) pairs_.emplace_back(key, value);
  std::stable_sort(pairs_.begin(), pairs_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
}

void LabelSet::Add(std::string key, std::string value) {
  pairs_.emplace_back(std::move(key), std::move(value));
  std::stable_sort(pairs_.begin(), pairs_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
}

bool LabelSet::Has(std::string_view key, std::string_view value) const {
  for (const auto& [k, v] : pairs_) {
    if (k == key && v == value) return true;
  }
  return false;
}

namespace {

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Renders a sample value: integers without a fractional tail so
/// counters read naturally, everything else shortest-round-trip-ish.
std::string RenderValue(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    return StrFormat("%lld", static_cast<long long>(v));
  }
  return StrFormat("%.9g", v);
}

}  // namespace

std::string LabelSet::Render() const {
  if (pairs_.empty()) return {};
  std::string out = "{";
  for (size_t i = 0; i < pairs_.size(); ++i) {
    if (i > 0) out += ',';
    out += pairs_[i].first;
    out += "=\"";
    out += EscapeLabelValue(pairs_[i].second);
    out += '"';
  }
  out += '}';
  return out;
}

// --- Histogram -------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::Observe(double value) {
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();  // == bounds_.size() for the +Inf overflow slot
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  internal::AtomicAdd(&sum_, value);
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot snap;
  snap.buckets.reserve(buckets_.size());
  for (const std::atomic<uint64_t>& bucket : buckets_) {
    snap.buckets.push_back(bucket.load(std::memory_order_relaxed));
    snap.count += snap.buckets.back();
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

double Histogram::Quantile(const Snapshot& snap,
                           const std::vector<double>& bounds, double q) {
  if (snap.count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // The rank is 1-based so q=1 lands on the last observation's bucket.
  const double rank = q * static_cast<double>(snap.count);
  uint64_t seen = 0;
  for (size_t b = 0; b < snap.buckets.size(); ++b) {
    const uint64_t in_bucket = snap.buckets[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= rank) {
      if (b >= bounds.size()) {
        // Overflow bucket: no finite upper bound; clamp to the ladder.
        return bounds.empty() ? snap.sum / static_cast<double>(snap.count)
                              : bounds.back();
      }
      const double lower = b == 0 ? 0.0 : bounds[b - 1];
      const double upper = bounds[b];
      const double into =
          (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::min(1.0, std::max(0.0, into));
    }
    seen += in_bucket;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

std::vector<double> Histogram::LatencyBounds() {
  return {1e-5,   2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3,
          2.5e-3, 5e-3,   1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1,
          5e-1,   1.0,    2.5,  5.0,  10.0};
}

// --- Registry --------------------------------------------------------------

namespace {
/// Steady-clock seconds since an arbitrary process-local origin.
double SteadyNowSeconds() {
  static const Timer origin;  // process-wide origin; Timer is steady-clock
  return origin.Seconds();
}
}  // namespace

Registry::Registry() : epoch_seconds_(SteadyNowSeconds()) {}

double Registry::UptimeSeconds() const {
  return SteadyNowSeconds() - epoch_seconds_;
}

Registry::Series* Registry::FindOrCreateLocked(std::string_view name,
                                               Kind kind, LabelSet labels,
                                               std::string_view help) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Metric metric;
    metric.kind = kind;
    metric.help = std::string(help);
    it = metrics_.emplace(std::string(name), std::move(metric)).first;
  }
  Metric& metric = it->second;
  for (Series& series : metric.series) {
    if (series.labels == labels) {
      series.removed = false;  // re-registration resurrects the series
      return &series;
    }
  }
  metric.series.emplace_back();
  Series& series = metric.series.back();
  series.labels = std::move(labels);
  return &series;
}

Counter* Registry::GetCounter(std::string_view name, LabelSet labels,
                              std::string_view help) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Series* series =
      FindOrCreateLocked(name, Kind::kCounter, std::move(labels), help);
  if (series->counter == nullptr) {
    series->counter = std::make_unique<Counter>();
  }
  return series->counter.get();
}

Gauge* Registry::GetGauge(std::string_view name, LabelSet labels,
                          std::string_view help) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Series* series =
      FindOrCreateLocked(name, Kind::kGauge, std::move(labels), help);
  if (series->gauge == nullptr) {
    series->gauge = std::make_unique<Gauge>();
  }
  return series->gauge.get();
}

Histogram* Registry::GetHistogram(std::string_view name, LabelSet labels,
                                  std::vector<double> bounds,
                                  std::string_view help) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Series* series =
      FindOrCreateLocked(name, Kind::kHistogram, std::move(labels), help);
  if (series->histogram == nullptr) {
    series->histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return series->histogram.get();
}

void Registry::RemoveLabeled(std::string_view key, std::string_view value) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto& [name, metric] : metrics_) {
    for (Series& series : metric.series) {
      if (series.labels.Has(key, value)) series.removed = true;
    }
  }
}

std::string Registry::RenderPrometheus() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::string out;
  for (const auto& [name, metric] : metrics_) {
    // Collect live series first so fully-removed metrics emit nothing.
    std::vector<const Series*> live;
    for (const Series& series : metric.series) {
      if (!series.removed) live.push_back(&series);
    }
    if (live.empty()) continue;
    std::sort(live.begin(), live.end(),
              [](const Series* a, const Series* b) {
                return a->labels < b->labels;
              });

    if (!metric.help.empty()) {
      out += "# HELP " + name + " " + metric.help + "\n";
    }
    const char* type = metric.kind == Kind::kCounter   ? "counter"
                       : metric.kind == Kind::kGauge   ? "gauge"
                                                       : "histogram";
    out += "# TYPE " + name + " " + type + "\n";

    for (const Series* series : live) {
      const std::string labels = series->labels.Render();
      switch (metric.kind) {
        case Kind::kCounter:
          out += name + labels + " " +
                 RenderValue(series->counter->Value()) + "\n";
          break;
        case Kind::kGauge:
          out += name + labels + " " +
                 RenderValue(series->gauge->Value()) + "\n";
          break;
        case Kind::kHistogram: {
          const Histogram& h = *series->histogram;
          const Histogram::Snapshot snap = h.Snap();
          uint64_t cumulative = 0;
          for (size_t b = 0; b < h.bounds().size(); ++b) {
            cumulative += snap.buckets[b];
            LabelSet with_le = series->labels;
            with_le.Add("le", StrFormat("%.9g", h.bounds()[b]));
            out += name + "_bucket" + with_le.Render() + " " +
                   RenderValue(static_cast<double>(cumulative)) + "\n";
          }
          LabelSet inf = series->labels;
          inf.Add("le", "+Inf");
          out += name + "_bucket" + inf.Render() + " " +
                 RenderValue(static_cast<double>(snap.count)) + "\n";
          out += name + "_sum" + labels + " " + RenderValue(snap.sum) +
                 "\n";
          out += name + "_count" + labels + " " +
                 RenderValue(static_cast<double>(snap.count)) + "\n";
          break;
        }
      }
    }

    // p50/p95/p99 companions: distinct gauge metrics, so the quantile
    // readout the STATS view and the watch client use is also on the
    // scrape surface without bending the histogram type's grammar.
    if (metric.kind == Kind::kHistogram) {
      const struct {
        const char* suffix;
        double q;
      } quantiles[] = {{"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}};
      for (const auto& [suffix, q] : quantiles) {
        out += "# TYPE " + name + suffix + " gauge\n";
        for (const Series* series : live) {
          out += name + suffix + series->labels.Render() + " " +
                 RenderValue(series->histogram->Quantile(q)) + "\n";
        }
      }
    }
  }
  return out;
}

double Registry::CounterValue(std::string_view name,
                              const LabelSet& labels) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = metrics_.find(name);
  if (it == metrics_.end()) return 0.0;
  for (const Series& series : it->second.series) {
    if (series.labels == labels && series.counter != nullptr) {
      return series.counter->Value();
    }
  }
  return 0.0;
}

double Registry::GaugeValue(std::string_view name,
                            const LabelSet& labels) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = metrics_.find(name);
  if (it == metrics_.end()) return 0.0;
  for (const Series& series : it->second.series) {
    if (series.labels == labels && series.gauge != nullptr) {
      return series.gauge->Value();
    }
  }
  return 0.0;
}

}  // namespace xcq::obs
