/// \file frame.hpp
/// Binary frame codec of the live telemetry stream (obs/stream.hpp): the
/// wire format every TelemetryBus subscriber receives.
///
/// Wire format -- length-prefixed, all integers little-endian, no padding
/// (mosquitto-style fixed header + spead2-style self-describing payload):
///
///   u32  body_len     bytes after this prefix
///   u8   type         FrameType
///   u16  topic_len    UTF-8 topic bytes that follow
///   ...  topic
///   u64  sequence     per-topic publish ordinal (0-based, gapless)
///   ...  payload      body_len - 11 - topic_len bytes, typed by `type`
///
/// Doubles travel as their IEEE-754 bit pattern (std::bit_cast to u64),
/// so encode/decode is a *byte-deterministic* round trip: two frames with
/// bitwise-equal fields encode to identical bytes on every platform, which
/// is what lets the determinism sweep digest published frame *bytes* and
/// the golden tests pin them. Decoding is loud: a truncated buffer, a
/// length that overruns it, an unknown type byte or a counter value that
/// is not a u64 count throws util::Error rather than yielding a
/// best-effort frame.
///
/// Topic naming scheme (full table in docs/ARCHITECTURE.md):
///   trace/tenant=<T>               request-scoped spans of tenant T
///   trace/tenant=<T>/channel=<C>   channel-scoped spans (execution,
///                                  recalibration, epoch swap)
///   metrics/<metric-name>          one topic per metric family
/// Prefix subscription ("trace/tenant=3" matches both trace topics of
/// tenant 3; "" matches everything) is the filtering primitive.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace idp::obs {

/// Payload taxonomy of the stream.
enum class FrameType : std::uint8_t {
  kTraceSpan = 0,       ///< one TraceEvent (TraceSpanPayload)
  kMetricDelta = 1,     ///< one metric update (MetricDeltaPayload)
  kMetricSnapshot = 2,  ///< one sample of a subscription-time snapshot
};

const char* to_string(FrameType type);

/// One published frame. `sequence` is the per-topic publish ordinal the
/// bus stamped (snapshot frames carry the topic's *next* ordinal: the
/// first delta a subscriber sees after its snapshot has sequence >= it).
struct Frame {
  FrameType type = FrameType::kTraceSpan;
  std::string topic;
  std::uint64_t sequence = 0;
  std::vector<std::uint8_t> payload;

  friend bool operator==(const Frame&, const Frame&) = default;
};

/// Append one encoded frame to `out` (the streaming form; a subscriber
/// log is just the concatenation of its delivered frames).
void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out);

/// One frame alone.
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Decode the frame starting at `offset`, advancing `offset` past it.
/// Throws util::Error on truncation, overrun or an unknown type byte.
Frame decode_frame(std::span<const std::uint8_t> buffer, std::size_t& offset);

/// Decode a whole concatenated stream (throws on any malformed frame;
/// trailing partial bytes are an error, not a silent stop).
std::vector<Frame> decode_stream(std::span<const std::uint8_t> buffer);

// --- payloads ---------------------------------------------------------------

/// kTraceSpan: one structured span, plus the tenant that owns the topic
/// (the event itself is keyed by request id / session site, not tenant).
struct TraceSpanPayload {
  std::int32_t tenant = -1;
  TraceEvent event;

  friend bool operator==(const TraceSpanPayload&,
                         const TraceSpanPayload&) = default;
};

/// kMetricDelta: one incremental update of a (name, labels) series.
/// `value` is the counter increment, the gauge level, or the histogram
/// observation -- raw observations travel on the wire, so an aggregation
/// subscriber rebuilds bit-identical histograms (same default geometry).
struct MetricDeltaPayload {
  MetricType type = MetricType::kCounter;
  std::string name;
  MetricLabels labels;
  double value = 0.0;

  friend bool operator==(const MetricDeltaPayload&,
                         const MetricDeltaPayload&) = default;
};

/// kMetricSnapshot: one MetricSample as of subscription time (the
/// "snapshot" half of snapshot-then-delta). Histogram snapshots carry the
/// summary only -- bins are not reconstructible from it, which is why
/// exact aggregation requires subscribing before traffic (documented in
/// stream.hpp; LiveAggregator tracks the distinction).
struct MetricSnapshotPayload {
  MetricType type = MetricType::kCounter;
  std::string name;
  MetricLabels labels;
  double value = 0.0;
  util::LatencySummary latency;

  friend bool operator==(const MetricSnapshotPayload&,
                         const MetricSnapshotPayload&) = default;
};

std::vector<std::uint8_t> encode(const TraceSpanPayload& payload);
std::vector<std::uint8_t> encode(const MetricDeltaPayload& payload);
std::vector<std::uint8_t> encode(const MetricSnapshotPayload& payload);

TraceSpanPayload decode_trace_span(std::span<const std::uint8_t> payload);
MetricDeltaPayload decode_metric_delta(std::span<const std::uint8_t> payload);
MetricSnapshotPayload decode_metric_snapshot(
    std::span<const std::uint8_t> payload);

// --- topics -----------------------------------------------------------------

/// "trace/tenant=<T>" (channel < 0) or "trace/tenant=<T>/channel=<C>".
std::string trace_topic(std::uint32_t tenant, std::int32_t channel = -1);

/// "metrics/<name>": one topic per metric family (labels stay in the
/// payload -- a family's series share one FIFO).
std::string metric_topic(const std::string& name);

}  // namespace idp::obs
