/// \file stream.cpp
/// Telemetry bus implementation: bounded subscriber queues with explicit
/// admission, serialised publish with per-topic sequencing, the capture
/// commit, the replay reorder buffer and the live aggregator.

#include "obs/stream.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace idp::obs {

namespace {

/// Channel-scoped span kinds stream on the (tenant, channel) topic; the
/// rest are request-scoped. Keep in sync with the ARCHITECTURE.md table.
bool channel_scoped(SpanKind kind) {
  return kind == SpanKind::kExecution || kind == SpanKind::kRecalibration ||
         kind == SpanKind::kEpochSwap;
}

std::string span_topic(std::int32_t tenant, const TraceEvent& event) {
  const auto t = static_cast<std::uint32_t>(std::max(tenant, 0));
  if (channel_scoped(event.kind)) {
    return trace_topic(t, static_cast<std::int32_t>(event.entity));
  }
  return trace_topic(t);
}

void apply_op(MetricsRegistry& registry, MetricType type,
              const std::string& name, const MetricLabels& labels,
              double value) {
  switch (type) {
    case MetricType::kCounter:
      registry.counter(name, labels).add(static_cast<std::uint64_t>(value));
      break;
    case MetricType::kGauge:
      registry.gauge(name, labels).set(value);
      break;
    case MetricType::kHistogram:
      registry.histogram(name, labels).observe(value);
      break;
  }
}

}  // namespace

const char* to_string(OverflowPolicy policy) {
  switch (policy) {
    case OverflowPolicy::kBlock: return "block";
    case OverflowPolicy::kDropOldest: return "drop_oldest";
  }
  return "unknown";
}

// --- TelemetrySubscriber ----------------------------------------------------

TelemetrySubscriber::TelemetrySubscriber(SubscriberConfig config)
    : config_(std::move(config)) {
  util::require(config_.capacity > 0, "subscriber queue needs capacity > 0");
}

bool TelemetrySubscriber::topic_matches(const std::string& topic) const {
  return topic.size() >= config_.topic_prefix.size() &&
         topic.compare(0, config_.topic_prefix.size(), config_.topic_prefix) ==
             0;
}

void TelemetrySubscriber::offer(Frame frame) {
  std::unique_lock<std::mutex> lock(mutex_);
  ++stats_.published;
  if (queue_.size() >= config_.capacity) {
    if (config_.policy == OverflowPolicy::kDropOldest) {
      // Evict the oldest queued frame to admit the newest -- and count it:
      // a dropped frame is an explicit outcome, never a silent one.
      queue_.pop_front();
      ++stats_.dropped;
    } else {
      // Backpressure: hold the publisher until the consumer makes room.
      space_.wait(lock, [this] {
        return queue_.size() < config_.capacity || closed_;
      });
      if (closed_) {
        // The bus shut down under a blocked publisher; the frame was never
        // accepted, so it lands in the dropped bucket (loudly).
        ++stats_.dropped;
        return;
      }
    }
  }
  queue_.push_back(std::move(frame));
  ready_.notify_one();
}

void TelemetrySubscriber::seed(Frame frame) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Seeding happens during subscribe(), before the caller holds the
  // subscriber -- no consumer exists yet, so a blocking wait here could
  // never be satisfied. A snapshot that exceeds a kBlock subscriber's
  // capacity is a configuration mistake and throws loudly instead.
  if (queue_.size() >= config_.capacity) {
    util::ensure(config_.policy == OverflowPolicy::kDropOldest,
                 "metric snapshot exceeds the subscriber's queue capacity");
    ++stats_.published;
    queue_.pop_front();
    ++stats_.dropped;
  } else {
    ++stats_.published;
  }
  queue_.push_back(std::move(frame));
  ready_.notify_one();
}

bool TelemetrySubscriber::pop(Frame& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  ready_.wait(lock, [this] { return !queue_.empty() || closed_; });
  if (queue_.empty()) return false;  // closed and fully drained
  out = std::move(queue_.front());
  queue_.pop_front();
  ++stats_.delivered;
  space_.notify_one();
  return true;
}

bool TelemetrySubscriber::try_pop(Frame& out) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (queue_.empty()) return false;
  out = std::move(queue_.front());
  queue_.pop_front();
  ++stats_.delivered;
  space_.notify_one();
  return true;
}

SubscriberStats TelemetrySubscriber::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  SubscriberStats stats = stats_;
  stats.pending = queue_.size();
  return stats;
}

void TelemetrySubscriber::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  ready_.notify_all();
  space_.notify_all();
}

// --- TelemetryBus -----------------------------------------------------------

std::shared_ptr<TelemetrySubscriber> TelemetryBus::subscribe(
    SubscriberConfig config) {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  util::ensure(!closed_, "subscribe on a closed telemetry bus");
  auto subscriber = std::make_shared<TelemetrySubscriber>(std::move(config));
  subscribers_.push_back(subscriber);
  return subscriber;
}

std::shared_ptr<TelemetrySubscriber> TelemetryBus::subscribe(
    SubscriberConfig config, const MetricsSnapshot& snapshot) {
  // Seed under the publish lock: every sample frame lands before any delta
  // that publishes after us -- the snapshot-then-delta atomicity that
  // makes mid-run joins resumable.
  const std::lock_guard<std::mutex> publish_lock(publish_mutex_);
  const std::lock_guard<std::mutex> lock(state_mutex_);
  util::ensure(!closed_, "subscribe on a closed telemetry bus");
  auto subscriber = std::make_shared<TelemetrySubscriber>(std::move(config));
  for (const MetricSample& sample : snapshot.samples) {
    const std::string topic = metric_topic(sample.name);
    if (!subscriber->topic_matches(topic)) continue;
    MetricSnapshotPayload payload;
    payload.type = sample.type;
    payload.name = sample.name;
    payload.labels = sample.labels;
    payload.value = sample.value;
    payload.latency = sample.latency;
    Frame frame;
    frame.type = FrameType::kMetricSnapshot;
    frame.topic = topic;
    // Snapshot frames are subscriber-private and do not advance the topic;
    // they carry its *next* ordinal so the first live delta follows >= it.
    const auto it = topic_sequences_.find(topic);
    frame.sequence = it == topic_sequences_.end() ? 0 : it->second;
    frame.payload = encode(payload);
    subscriber->seed(std::move(frame));
  }
  subscribers_.push_back(subscriber);
  return subscriber;
}

void TelemetryBus::publish(FrameType type, const std::string& topic,
                           std::vector<std::uint8_t> payload) {
  // The publish lock serialises fan-out: admission into every queue
  // happens in one serial publish order, so per-topic FIFO holds for each
  // subscriber. The state lock is NOT held across the (possibly blocking)
  // offers -- close() takes only the state lock, so it can always mark the
  // bus closed and wake a backpressured publisher out of its wait.
  const std::lock_guard<std::mutex> publish_lock(publish_mutex_);
  Frame frame;
  std::vector<std::shared_ptr<TelemetrySubscriber>> subscribers;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    util::ensure(!closed_, "publish on a closed telemetry bus");
    frame.type = type;
    frame.topic = topic;
    frame.sequence = topic_sequences_[topic]++;
    frame.payload = std::move(payload);
    ++frames_published_;
    subscribers = subscribers_;
  }
  for (const auto& subscriber : subscribers) {
    if (subscriber->topic_matches(topic)) subscriber->offer(frame);
  }
}

void TelemetryBus::close() {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  if (closed_) return;
  closed_ = true;
  for (const auto& subscriber : subscribers_) subscriber->close();
}

bool TelemetryBus::closed() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return closed_;
}

std::uint64_t TelemetryBus::frames_published() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return frames_published_;
}

std::vector<std::string> TelemetryBus::topics() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  std::vector<std::string> out;
  out.reserve(topic_sequences_.size());
  for (const auto& [topic, seq] : topic_sequences_) out.push_back(topic);
  return out;
}

std::uint64_t TelemetryBus::topic_sequence(const std::string& topic) const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  const auto it = topic_sequences_.find(topic);
  return it == topic_sequences_.end() ? 0 : it->second;
}

std::vector<SubscriberStats> TelemetryBus::subscriber_stats() const {
  std::vector<std::shared_ptr<TelemetrySubscriber>> subscribers;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    subscribers = subscribers_;
  }
  std::vector<SubscriberStats> out;
  out.reserve(subscribers.size());
  for (const auto& subscriber : subscribers) out.push_back(subscriber->stats());
  return out;
}

void TelemetryBus::publish_metrics(MetricsRegistry& registry) const {
  const std::vector<SubscriberStats> stats = subscriber_stats();
  for (std::size_t i = 0; i < stats.size(); ++i) {
    MetricLabels labels;
    labels.subscriber = static_cast<std::int32_t>(i);
    registry.counter("obs.bus.published", labels).set(stats[i].published);
    registry.counter("obs.bus.delivered", labels).set(stats[i].delivered);
    registry.counter("obs.bus.dropped", labels).set(stats[i].dropped);
    registry.gauge("obs.bus.pending", labels)
        .set(static_cast<double>(stats[i].pending));
  }
}

// --- TelemetryStream --------------------------------------------------------

void TelemetryStream::commit(const TelemetryCapture& capture) const {
  // Spans commit in the capture's canonical order (sorted, exact
  // duplicates collapsed -- TraceRecorder::sorted() semantics), so frame
  // content and order are pure functions of the request -- never of
  // recording order.
  std::vector<TraceEvent> spans = capture.spans;
  std::sort(spans.begin(), spans.end(), trace_event_less);
  spans.erase(std::unique(spans.begin(), spans.end()), spans.end());
  if (bus != nullptr) {
    for (const TraceEvent& event : spans) {
      TraceSpanPayload payload;
      payload.tenant = capture.tenant;
      payload.event = event;
      bus->publish(FrameType::kTraceSpan, span_topic(capture.tenant, event),
                   encode(payload));
    }
    for (const MetricOp& op : capture.ops) {
      MetricDeltaPayload payload;
      payload.type = op.type;
      payload.name = op.name;
      payload.labels = op.labels;
      payload.value = op.value;
      bus->publish(FrameType::kMetricDelta, metric_topic(op.name),
                   encode(payload));
    }
  }
  if (trace != nullptr) {
    for (const TraceEvent& event : spans) trace->record(event);
  }
  if (metrics != nullptr) {
    for (const MetricOp& op : capture.ops) {
      apply_op(*metrics, op.type, op.name, op.labels, op.value);
    }
  }
}

// --- StreamSequencer --------------------------------------------------------

StreamSequencer::StreamSequencer(TelemetryStream out, std::size_t count)
    : out_(out), slots_(count) {}

void StreamSequencer::deposit(std::size_t index, TelemetryCapture capture) {
  const std::lock_guard<std::mutex> lock(mutex_);
  util::require(index < slots_.size(), "sequencer index out of range");
  util::ensure(slots_[index] == nullptr && index >= frontier_,
               "sequencer slot deposited twice");
  slots_[index] = std::make_unique<TelemetryCapture>(std::move(capture));
  // Flush the completed prefix in log order. Committing under the lock is
  // the point: the frontier advances through one serial order, so frame
  // sequences are independent of which worker deposited when.
  while (frontier_ < slots_.size() && slots_[frontier_] != nullptr) {
    out_.commit(*slots_[frontier_]);
    slots_[frontier_].reset();
    ++frontier_;
  }
}

std::size_t StreamSequencer::published() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return frontier_;
}

// --- LiveAggregator ---------------------------------------------------------

void LiveAggregator::consume(const Frame& frame) {
  try {
    switch (frame.type) {
      case FrameType::kTraceSpan:
        ++spans_seen_;
        break;
      case FrameType::kMetricDelta: {
        const MetricDeltaPayload p = decode_metric_delta(frame.payload);
        apply_op(registry_, p.type, p.name, p.labels, p.value);
        break;
      }
      case FrameType::kMetricSnapshot: {
        const MetricSnapshotPayload p = decode_metric_snapshot(frame.payload);
        switch (p.type) {
          case MetricType::kCounter:
            registry_.counter(p.name, p.labels)
                .set(static_cast<std::uint64_t>(p.value));
            break;
          case MetricType::kGauge:
            registry_.gauge(p.name, p.labels).set(p.value);
            break;
          case MetricType::kHistogram:
            // Register the series so it appears in snapshots, but bins are
            // not on the wire: prior observations are unrecoverable, and
            // the rebuild is approximate from here (mid-run join).
            registry_.histogram(p.name, p.labels);
            if (p.latency.count > 0) exact_ = false;
            break;
        }
        break;
      }
    }
  } catch (const std::invalid_argument& e) {
    // The registry refuses to re-type a series. From the wire that is a
    // malformed stream, not a caller mistake: fail like any bad frame.
    throw util::Error(std::string("telemetry frame re-types a metric: ") +
                      e.what());
  }
  ++frames_consumed_;
}

void LiveAggregator::run(TelemetrySubscriber& subscriber) {
  Frame frame;
  while (subscriber.pop(frame)) consume(frame);
}

}  // namespace idp::obs
