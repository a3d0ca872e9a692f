/// \file trace.hpp
/// Deterministic structured tracing for the service runtime.
///
/// A TraceRecorder collects structured span events -- request admission,
/// queue wait, run-id lease grant, shard route, channel execution, retry,
/// reroute, failover, rejoin, calibration epoch swap, recalibration
/// campaign, merge -- keyed by request id (or session site for
/// session-scoped spans) with *virtual-clock* timestamps: the request's
/// service-timeline instant (time_h) and, for the cluster replay's
/// recovery spans, the simulated-network tick. Wall-clock never enters an
/// event, so the exported trace of a replayed log is a pure function of
/// (log, seed, configuration): bitwise identical at parallelism 1 / N /
/// hardware, which the 'obs' workload of the unified determinism sweep
/// pins.
///
/// Concurrency & canonicalisation: record() is thread-safe and may be
/// called from any scheduler worker or batch lane. Arrival order is
/// whatever the thread schedule produced, so the canonical view is
/// sorted(): events ordered by (request key, kind, entity, sequence,
/// tick), with *exact duplicates collapsed* -- idempotent spans (e.g. two
/// shards warming the same (session, channel, epoch) calibration after a
/// failover re-execution) describe one logical event and must not make
/// the trace depend on the recovery schedule. Non-idempotent repeats
/// (retries, re-dispatches) stay distinct through their sequence/tick.
///
/// Export: sorted CSV (golden-fixture friendly) and sorted JSONL, one
/// canonical column schema for both.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace idp::obs {

/// Span/event taxonomy of the service stack (see docs/ARCHITECTURE.md for
/// the full table: which path emits which kind, key and entity semantics).
enum class SpanKind : std::uint8_t {
  kAdmission = 0,    ///< queue admission outcome (live mode; entity=priority)
  kQueueWait = 1,    ///< dispatch after queueing (live mode; entity=priority)
  kLeaseGrant = 2,   ///< run-id block leased (entity = first leased run id)
  kShardRoute = 3,   ///< router placement (entity = primary shard)
  kExecution = 4,    ///< one measured channel (entity = channel, value = run id)
  kRetry = 5,        ///< past-deadline retransmit (entity = target shard)
  kReroute = 6,      ///< dispatch sent to a non-primary shard (entity = target)
  kFailover = 7,     ///< detector declared a shard down (key = shard)
  kRejoin = 8,       ///< detector saw a declared-down shard return (key = shard)
  kEpochSwap = 9,    ///< session swapped onto a new calibration epoch
  kRecalibration = 10,  ///< recalibration campaign built (entity = channel)
  kMerge = 11,       ///< response merged into the global log (entity = shard)
};

inline constexpr std::size_t kSpanKindCount = 12;

const char* to_string(SpanKind kind);

/// One structured trace event. Every field is a pure function of (log,
/// seed, configuration, fault schedule) -- never of wall-clock or thread
/// identity -- except `value` on the explicitly observational live-mode
/// kinds (kQueueWait carries wall seconds; the taxonomy table marks it).
struct TraceEvent {
  std::uint64_t key = 0;     ///< request id / shard / session site (per kind)
  SpanKind kind = SpanKind::kExecution;
  std::uint64_t entity = 0;  ///< kind-specific: channel, shard, run id, ...
  std::uint64_t sequence = 0;  ///< ordinal separating repeats of one kind
  std::uint64_t tick = 0;    ///< virtual-clock tick (cluster recovery; else 0)
  double time_h = 0.0;       ///< service-timeline instant of the subject
  double value = 0.0;        ///< kind-specific payload (epoch, outcome, ...)

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Canonical event order: (key, kind, entity, sequence, tick, time_h, value).
bool trace_event_less(const TraceEvent& a, const TraceEvent& b);

/// Thread-safe structured-event recorder. Instrumented components never
/// record here directly: they fill an obs::TelemetryCapture, and the one
/// sink (obs::TelemetryStream::commit, obs/stream.hpp) records its spans
/// when a recorder is attached -- the only "tracing off" check
/// (BM_ObsOverhead measures the enabled cost).
class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Append one event (thread-safe, amortised O(1)).
  void record(const TraceEvent& event);

  /// Convenience: record with the fields spelled out.
  void record(std::uint64_t key, SpanKind kind, std::uint64_t entity = 0,
              std::uint64_t sequence = 0, std::uint64_t tick = 0,
              double time_h = 0.0, double value = 0.0) {
    record(TraceEvent{key, kind, entity, sequence, tick, time_h, value});
  }

  /// Events recorded so far (raw arrival count, duplicates included).
  std::size_t size() const;

  /// Discard everything (a fresh recorder for the next run).
  void clear();

  /// The canonical trace: events sorted by trace_event_less with exact
  /// duplicates collapsed (idempotent spans merge; see file comment).
  std::vector<TraceEvent> sorted() const;

  /// Canonical CSV schema: key, kind, entity, sequence, tick, time_h, value.
  static const std::vector<std::string>& columns();

  /// Write the canonical (sorted, deduplicated) trace as CSV / JSONL.
  /// Doubles are written with round-trip precision, so two bitwise-equal
  /// traces export byte-identical files.
  void to_csv(const std::string& path) const;
  void to_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

}  // namespace idp::obs
