/// \file ledger.hpp
/// The benchmark's own instruments: a span ledger recorded around calls
/// into the platform's public layer functions, span self times, and the
/// percentile rule every latency figure is reported under.
///
/// Nothing here reaches inside the platform: a span brackets one public
/// call made by the benchmark, so a layer's cost is what the caller sees.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock instants.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One recorded span. Times are seconds since the ledger's origin; a
/// parent of 0 marks a root span.
struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "bio.probe_build"
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;  ///< request id the span belongs to
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Layer of a span name: the text before the first '.'.
std::string layer_of(const std::string& name);

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval covered by the union of its children's intervals.
/// Children are the spans whose `parent` is its id; overlapping children
/// (from several threads) are counted once.
std::vector<double> self_times(std::span<const Span> spans);

/// In-memory span recorder. Thread-safe; when disabled every call is a
/// no-op, so the end-to-end run carries no tracing cost. Nesting follows
/// the recording thread: a Scope opened while another Scope of the same
/// ledger is open on that thread becomes its child.
class SpanLedger {
 public:
  explicit SpanLedger(bool enabled);
  SpanLedger(const SpanLedger&) = delete;
  SpanLedger& operator=(const SpanLedger&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span: records [construction, destruction) under `name`.
  class Scope {
   public:
    Scope(SpanLedger& ledger, std::string name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLedger& ledger_;
    Span span_;
    Clock::time_point start_{};
    const Scope* outer_ = nullptr;
  };

  /// Snapshot of every completed span, in completion order.
  std::vector<Span> spans() const;
  std::size_t size() const;

  /// Write the spans as JSON lines (name, id, parent, request, start_s,
  /// end_s, self_s).
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// Value of a missed request (rejected, failed or never answered) in a
/// latency sample: it sorts after every answered request.
inline constexpr double kMiss = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile (p in (0, 100]) of an unsorted sample; misses
/// stay in the sample as +infinity. Throws on an empty sample.
double percentile(std::vector<double> sample, double p);

/// True when at least ten samples lie beyond the nearest rank of the
/// p-th percentile -- the condition for reporting that percentile.
bool percentile_supported(std::size_t n, double p);

/// Share of the sample at or below `limit` (misses never are).
double share_within(std::span<const double> sample, double limit);

}  // namespace perfbench
