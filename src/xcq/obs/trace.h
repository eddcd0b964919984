#ifndef XCQ_OBS_TRACE_H_
#define XCQ_OBS_TRACE_H_

/// \file trace.h
/// Per-query phase tracing (docs/OBSERVABILITY.md §4).
///
/// A `QueryTrace` is a flat, fixed-capacity record of the phases one
/// query passed through — parse / compile / label / sweep / minimize /
/// serialize — each phase a span with a steady-clock start
/// offset, a duration, and a nesting depth. Spans are recorded by the
/// RAII `QueryTrace::Scope` (built on `util/timer.h`, the single
/// steady-clock path shared with the benches), so instrumenting a phase
/// is one line and an exception-safe close.
///
/// The capacity is fixed (`kMaxSpans`) and spans live inline in the
/// trace object: tracing allocates nothing on the query hot path, which
/// keeps bench_hotpath's zero-allocation gates intact. A query deep
/// enough to overflow the capacity silently drops the excess spans —
/// the totals stay right, the tail detail is sacrificed.
///
/// The daemon serializes traces as one-line JSON (`--trace=all` or
/// `--trace=slow:<ms>`); `ToJson` is that format.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "xcq/util/timer.h"

namespace xcq::obs {

/// \brief The traced phases, in canonical pipeline order.
enum class Phase : uint8_t {
  kParse = 0,     ///< XPath text -> AST.
  kCompile,       ///< AST -> algebra plan.
  kLabel,         ///< Label extraction / common-extension merge.
  kPruneBind,     ///< Never recorded (no prune gates); the name is frozen
                  ///< and servebench/traced_run.cc reads the phase.
  kSweep,         ///< Axis sweeps + column ops (the evaluation proper).
  kMinimize,      ///< Post-query in-place reclaim (when it runs).
  kSerialize,     ///< Response formatting at the protocol layer.
};

inline constexpr size_t kPhaseCount = 7;

/// Stable lower-case name used in JSON traces and metric labels.
std::string_view PhaseName(Phase phase);

/// \brief One recorded phase interval.
struct TraceSpan {
  Phase phase = Phase::kParse;
  double start_seconds = 0.0;  ///< Offset from the trace's origin.
  double duration_seconds = 0.0;
  uint8_t depth = 0;  ///< Nesting depth at open (0 = top level).
};

/// \brief The spans of one query, recorded against one steady-clock
/// origin (construction time). Copyable — it rides inside
/// `QueryOutcome` back to the serving layer.
class QueryTrace {
 public:
  static constexpr size_t kMaxSpans = 24;

  /// \brief RAII recorder: opens a span on `trace` (null = no-op), and
  /// closes it on destruction or explicit `Close()`.
  class Scope {
   public:
    Scope(QueryTrace* trace, Phase phase);
    ~Scope() { Close(); }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span now (idempotent).
    void Close();

   private:
    QueryTrace* trace_;
    Phase phase_;
    double start_seconds_ = 0.0;
    uint8_t depth_ = 0;
    bool open_ = false;
  };

  QueryTrace() = default;

  /// Seconds since this trace's construction (its span origin).
  double Elapsed() const { return timer_.Seconds(); }

  /// Records a fully-formed span directly — for phases timed elsewhere
  /// (e.g. a shared BATCH books its one sweep on the first query's
  /// trace) where a Scope cannot wrap the code. `start` is an offset from the origin.
  void AddSpan(Phase phase, double start_seconds, double duration_seconds);

  size_t span_count() const { return count_; }
  const TraceSpan& span(size_t i) const { return spans_[i]; }

  /// Summed duration of every recorded span of `phase`.
  double PhaseSeconds(Phase phase) const;

  /// Spans dropped because the trace was full.
  uint64_t dropped() const { return dropped_; }

  /// One-line JSON: document, query, outcome counters supplied by the
  /// caller; spans in record order. Quotes/backslashes/control bytes in
  /// `document` and `query` are escaped.
  std::string ToJson(std::string_view document, std::string_view query,
                     uint64_t selected_tree_nodes, uint64_t splits) const;

 private:
  friend class Scope;

  Timer timer_;
  std::array<TraceSpan, kMaxSpans> spans_{};
  size_t count_ = 0;
  uint8_t depth_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace xcq::obs

#endif  // XCQ_OBS_TRACE_H_
