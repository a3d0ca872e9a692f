/// \file stream.hpp
/// The telemetry sink and the live streaming bus: every instrumented site
/// records one request's spans and metric ops into a TelemetryCapture,
/// and one TelemetryStream commits that capture to whatever is attached
/// -- a pub/sub bus, a TraceRecorder, a MetricsRegistry, any subset.
///
/// Pieces:
/// - TelemetryBus: topic-keyed publisher with bounded per-subscriber
///   queues. Admission is explicit, RequestQueue-style: a full kBlock
///   subscriber backpressures the publisher, a full kDropOldest
///   subscriber evicts its oldest frame and *counts the drop* -- never
///   silent. close() is permanent: publish-after-close throws, subscribers
///   drain every accepted frame, then pop() returns false.
/// - TelemetryCapture: one request's telemetry (spans + metric ops),
///   recorded off to the side during execution. The only surface serve
///   sites write to.
/// - TelemetryStream: the sink. commit() canonicalises the capture's spans
///   (sort + exact-duplicate collapse), publishes them and the ops as
///   frames (trace topics per (tenant, channel), one metric topic per
///   family), records the spans into the trace recorder and applies the
///   ops to the registry -- each step only where that surface is
///   attached. Every surface sees the same capture once, so the registry
///   and a from-the-start LiveAggregator end equal.
/// - StreamSequencer: reorder buffer for parallel replay -- captures
///   deposit in completion order, commit in log order.
/// - LiveAggregator: the canonical subscriber -- rebuilds a
///   MetricsRegistry (live p50/p90/p99 tiles) from snapshot + delta
///   frames.
///
/// Determinism contract (the streaming extension of the serve guarantee,
/// pinned by the `stream` determinism-sweep workload): the sequence of
/// published frames *per topic* is a pure function of (log, seed,
/// configuration) -- bitwise identical at parallelism 1 / N / hardware.
/// Two ingredients buy this under parallel replay:
///   1. every request's telemetry is captured privately (TelemetryCapture)
///      while it executes, so nothing observes the thread schedule;
///   2. captures commit in log order (StreamSequencer), so per-topic
///      sequence numbers are schedule-independent.
/// Delta frames carry *raw* histogram observations (not summaries), so an
/// aggregation subscriber that subscribed before traffic rebuilds
/// bit-identical histograms and its final percentiles equal the
/// end-of-run MetricsSnapshot exactly. A subscriber joining mid-run gets
/// snapshot-then-delta: counters and gauges resume exactly (set + add);
/// histogram snapshots carry only the summary (bins are not on the wire),
/// which LiveAggregator reports via exact().
///
/// Live mode (scheduler workers) commits in completion order -- wall
/// clock is already in those frames, determinism is a replay property.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/frame.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace idp::obs {

/// What a full subscriber queue does to the *next* frame.
enum class OverflowPolicy : std::uint8_t {
  kBlock = 0,      ///< publisher waits for space (backpressure)
  kDropOldest = 1, ///< evict the oldest queued frame, count it dropped
};

const char* to_string(OverflowPolicy policy);

/// One subscriber's admission discipline.
struct SubscriberConfig {
  std::string name;          ///< diagnostic label (metrics use the index)
  std::size_t capacity = 1024;  ///< queue bound, frames; must be > 0
  OverflowPolicy policy = OverflowPolicy::kBlock;
  /// Topic filter: receive frames whose topic starts with this prefix
  /// ("" = everything, "metrics/" = all metric families, "trace/tenant=3"
  /// = both trace topics of tenant 3).
  std::string topic_prefix;
};

/// One subscriber's frame account. Conservation (stream_conservation_rules
/// pins it): published == delivered + dropped + pending -- every frame
/// offered to the subscriber is consumed, counted dropped, or still
/// queued; there is no silent fourth fate.
struct SubscriberStats {
  std::uint64_t published = 0;  ///< frames offered (topic matched)
  std::uint64_t delivered = 0;  ///< frames consumed via pop/try_pop
  std::uint64_t dropped = 0;    ///< evictions + frames abandoned at close
  std::uint64_t pending = 0;    ///< frames currently queued
};

/// One bounded subscription. Created by TelemetryBus::subscribe; consume
/// with pop() (blocking; false once the bus closed and the queue drained)
/// or try_pop() (non-blocking). Thread-safe.
class TelemetrySubscriber {
 public:
  explicit TelemetrySubscriber(SubscriberConfig config);
  TelemetrySubscriber(const TelemetrySubscriber&) = delete;
  TelemetrySubscriber& operator=(const TelemetrySubscriber&) = delete;

  const SubscriberConfig& config() const { return config_; }

  /// Blocking consume: waits for a frame or bus close. False = closed and
  /// fully drained (every accepted frame was delivered first).
  bool pop(Frame& out);

  /// Non-blocking consume.
  bool try_pop(Frame& out);

  /// Current account, taken under the queue lock.
  SubscriberStats stats() const;

 private:
  friend class TelemetryBus;

  /// Bus-side admission of one frame (called with the bus publish lock
  /// held, serialising frames into every queue in publish order).
  void offer(Frame frame);

  /// Snapshot seeding during subscribe(): no consumer exists yet, so a
  /// kBlock overflow throws (a config mistake) instead of waiting forever;
  /// kDropOldest evicts as usual.
  void seed(Frame frame);

  /// Bus close: wake everything; blocked offers abandon (counted dropped).
  void close();

  bool topic_matches(const std::string& topic) const;

  SubscriberConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;  ///< consumer side: frame or close
  std::condition_variable space_;  ///< publisher side: room or close
  std::deque<Frame> queue_;
  SubscriberStats stats_;
  bool closed_ = false;
};

/// The bus. publish() stamps gapless per-topic sequence numbers and fans
/// the frame into every matching subscriber under one lock -- total
/// publish order is a single serial order, so per-topic FIFO holds in
/// every queue. Thread-safe; publishers may block (kBlock backpressure).
class TelemetryBus {
 public:
  TelemetryBus() = default;
  TelemetryBus(const TelemetryBus&) = delete;
  TelemetryBus& operator=(const TelemetryBus&) = delete;

  /// Add a subscriber (any time before close()).
  std::shared_ptr<TelemetrySubscriber> subscribe(SubscriberConfig config);

  /// Snapshot-then-delta: atomically enqueue one kMetricSnapshot frame per
  /// sample of `snapshot` (topic-filtered, counted in the subscriber's
  /// account) before any subsequent delta, then stream deltas as they
  /// publish. Snapshot frames carry the topic's next sequence number.
  std::shared_ptr<TelemetrySubscriber> subscribe(
      SubscriberConfig config, const MetricsSnapshot& snapshot);

  /// Publish one frame: stamp the topic's next sequence, offer to every
  /// matching subscriber. Throws util::Error after close().
  void publish(FrameType type, const std::string& topic,
               std::vector<std::uint8_t> payload);

  /// Permanent shutdown: publish() throws from here on; blocked publishers
  /// abandon their frame (counted dropped); subscribers drain what was
  /// accepted, then pop() returns false. Idempotent.
  void close();

  bool closed() const;

  /// Frames published so far (accepted publish() calls).
  std::uint64_t frames_published() const;

  /// Topics seen so far, in canonical (sorted) order.
  std::vector<std::string> topics() const;

  /// Next sequence number of one topic (== frames published on it).
  std::uint64_t topic_sequence(const std::string& topic) const;

  /// Every subscriber's account, in subscription order.
  std::vector<SubscriberStats> subscriber_stats() const;

  /// Publish the fan-out account under obs.bus.* -- one series per
  /// subscriber (labels.subscriber = subscription index), so
  /// stream_conservation_rules() holds per subscriber and in aggregate.
  void publish_metrics(MetricsRegistry& registry) const;

 private:
  /// Serialises publish() fan-out (and snapshot subscription): one frame
  /// at a time enters the queues, in one global order. Held across
  /// possibly-blocking offers, so nothing close() needs may live here.
  mutable std::mutex publish_mutex_;
  /// Guards the bus state below. Never held while an offer blocks, which
  /// is what lets close() interrupt a backpressured publisher.
  mutable std::mutex state_mutex_;
  std::map<std::string, std::uint64_t> topic_sequences_;
  std::vector<std::shared_ptr<TelemetrySubscriber>> subscribers_;
  std::uint64_t frames_published_ = 0;
  bool closed_ = false;
};

// --- capture / commit -------------------------------------------------------

/// One deferred metric update: a counter increment, a gauge level or a
/// histogram observation, applied when its capture commits.
struct MetricOp {
  MetricType type = MetricType::kCounter;
  std::string name;
  MetricLabels labels;
  double value = 0.0;
};

/// One request's telemetry, recorded privately during execution so the
/// published stream never observes the thread schedule (see file
/// comment). Single-owner by construction (one request, one worker), so
/// plain vectors -- spans canonicalise (sort + dedup, TraceRecorder
/// semantics) at commit time.
struct TelemetryCapture {
  std::int32_t tenant = -1;
  std::vector<TraceEvent> spans;
  std::vector<MetricOp> ops;

  void span(const TraceEvent& event) { spans.push_back(event); }
  void span(std::uint64_t key, SpanKind kind, std::uint64_t entity = 0,
            std::uint64_t sequence = 0, std::uint64_t tick = 0,
            double time_h = 0.0, double value = 0.0) {
    spans.push_back(TraceEvent{key, kind, entity, sequence, tick, time_h,
                               value});
  }
  void count(const std::string& name, const MetricLabels& labels,
             std::uint64_t n = 1) {
    ops.push_back({MetricType::kCounter, name, labels,
                   static_cast<double>(n)});
  }
  void observe(const std::string& name, const MetricLabels& labels,
               double value) {
    ops.push_back({MetricType::kHistogram, name, labels, value});
  }
};

/// The one telemetry sink: a nullable bus, trace recorder and registry
/// (null = that surface is off). commit() is the only way telemetry
/// reaches any of them. Span -> topic: channel-scoped kinds (kExecution,
/// kRecalibration, kEpochSwap) go to trace/tenant=T/channel=<entity>;
/// everything else to the request-scoped trace/tenant=T. Ops ->
/// metrics/<name>. A plain value over thread-safe surfaces: concurrent
/// commits are safe, and their frames may interleave on the bus (live
/// mode); replay serialises commits through a StreamSequencer.
struct TelemetryStream {
  TelemetryBus* bus = nullptr;
  TraceRecorder* trace = nullptr;
  MetricsRegistry* metrics = nullptr;

  /// Canonicalise the capture's spans, publish spans then ops as frames,
  /// record the spans, apply the ops (counter add / gauge set / histogram
  /// observe) -- each into its surface when attached.
  void commit(const TelemetryCapture& capture) const;
};

/// Reorder buffer of parallel replay: deposit(log_index, capture) from any
/// worker; captures commit strictly in log-index order, each at the
/// moment its prefix completes. After every index deposited, everything
/// has committed (the depositing worker that completed the prefix flushed
/// it synchronously).
class StreamSequencer {
 public:
  StreamSequencer(TelemetryStream out, std::size_t count);

  void deposit(std::size_t index, TelemetryCapture capture);

  /// Captures committed so far (== count when done).
  std::size_t published() const;

 private:
  TelemetryStream out_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<TelemetryCapture>> slots_;
  std::size_t frontier_ = 0;
};

/// The live-dashboard subscriber: rebuilds a registry from metric frames
/// (kMetricSnapshot to seed, kMetricDelta to update), yielding live
/// p50/p90/p99 tiles. With a from-the-start subscription the rebuild is
/// exact: snapshot() equals the publisher's end-of-run MetricsSnapshot
/// byte for byte (deltas carry raw observations; default histogram
/// geometry on both sides).
class LiveAggregator {
 public:
  /// Fold one frame in (non-metric frames count spans_seen only). A
  /// malformed payload or a frame that re-types an existing series throws
  /// util::Error and leaves the rebuild untouched.
  void consume(const Frame& frame);

  /// Drain a subscriber to close (blocking pop loop).
  void run(TelemetrySubscriber& subscriber);

  /// The rebuilt registry's canonical snapshot.
  MetricsSnapshot snapshot() const { return registry_.snapshot(); }

  /// False once a histogram snapshot with prior observations arrived:
  /// its bins are not on the wire, so the rebuild is approximate from
  /// that point (mid-run joins); counters and gauges stay exact.
  bool exact() const { return exact_; }

  std::uint64_t frames_consumed() const { return frames_consumed_; }
  std::uint64_t spans_seen() const { return spans_seen_; }

 private:
  MetricsRegistry registry_;
  bool exact_ = true;
  std::uint64_t frames_consumed_ = 0;
  std::uint64_t spans_seen_ = 0;
};

}  // namespace idp::obs
