/// \file frame.cpp
/// Frame codec implementation: little-endian put/get primitives with
/// bounds-checked decoding that throws instead of truncating.

#include "obs/frame.hpp"

#include <bit>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace idp::obs {

namespace {

// --- encode primitives (explicit little-endian, platform-independent) -------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  util::ensure(s.size() <= std::numeric_limits<std::uint16_t>::max(),
               "stream string exceeds the u16 length prefix");
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

// --- decode primitives ------------------------------------------------------

struct Reader {
  std::span<const std::uint8_t> buf;
  std::size_t pos = 0;

  void need(std::size_t n, const char* what) const {
    if (buf.size() - pos < n) {
      throw util::Error(std::string("truncated telemetry frame: ") + what);
    }
  }
  std::uint8_t u8(const char* what) {
    need(1, what);
    return buf[pos++];
  }
  std::uint16_t u16(const char* what) {
    need(2, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 2; ++i) v |= std::uint32_t(buf[pos++]) << (8 * i);
    return static_cast<std::uint16_t>(v);
  }
  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(buf[pos++]) << (8 * i);
    return v;
  }
  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(buf[pos++]) << (8 * i);
    return v;
  }
  std::int32_t i32(const char* what) {
    return static_cast<std::int32_t>(u32(what));
  }
  double f64(const char* what) { return std::bit_cast<double>(u64(what)); }
  std::string str(const char* what) {
    const std::uint16_t n = u16(what);
    need(n, what);
    std::string s(reinterpret_cast<const char*>(buf.data() + pos), n);
    pos += n;
    return s;
  }
  bool done() const { return pos == buf.size(); }
};

MetricType metric_type_of(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(MetricType::kHistogram)) {
    throw util::Error("unknown metric type byte in telemetry frame");
  }
  return static_cast<MetricType>(raw);
}

/// Counters travel as doubles but count in u64: a counter value must be a
/// finite, non-negative integer below 2^64, or converting it back is
/// undefined. Rejected here so no consumer ever casts a hostile value.
double checked_value(MetricType type, double value) {
  if (type == MetricType::kCounter &&
      !(value >= 0.0 && value < 0x1p64 && std::trunc(value) == value)) {
    throw util::Error("counter value in telemetry frame is not a u64 count");
  }
  return value;
}

void put_labels(std::vector<std::uint8_t>& out, const MetricLabels& labels) {
  put_i32(out, labels.tenant);
  put_i32(out, labels.shard);
  put_i32(out, labels.priority);
  put_i32(out, labels.channel);
  put_i32(out, labels.subscriber);
}

MetricLabels read_labels(Reader& r) {
  MetricLabels labels;
  labels.tenant = r.i32("labels");
  labels.shard = r.i32("labels");
  labels.priority = r.i32("labels");
  labels.channel = r.i32("labels");
  labels.subscriber = r.i32("labels");
  return labels;
}

}  // namespace

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::kTraceSpan: return "trace_span";
    case FrameType::kMetricDelta: return "metric_delta";
    case FrameType::kMetricSnapshot: return "metric_snapshot";
  }
  return "unknown";
}

// --- frame ------------------------------------------------------------------

void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out) {
  util::ensure(frame.topic.size() <= std::numeric_limits<std::uint16_t>::max(),
               "topic exceeds the u16 length prefix");
  const std::size_t body =
      1 + 2 + frame.topic.size() + 8 + frame.payload.size();
  util::ensure(body <= std::numeric_limits<std::uint32_t>::max(),
               "frame body exceeds the u32 length prefix");
  out.reserve(out.size() + 4 + body);
  put_u32(out, static_cast<std::uint32_t>(body));
  put_u8(out, static_cast<std::uint8_t>(frame.type));
  put_string(out, frame.topic);
  put_u64(out, frame.sequence);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> out;
  encode_frame(frame, out);
  return out;
}

Frame decode_frame(std::span<const std::uint8_t> buffer, std::size_t& offset) {
  if (offset > buffer.size()) {
    throw util::Error("frame decode offset past end of buffer");
  }
  Reader prefix{buffer.subspan(offset), 0};
  const std::uint32_t body = prefix.u32("length prefix");
  prefix.need(body, "frame body");

  Reader r{buffer.subspan(offset + 4, body), 0};
  const std::uint8_t raw_type = r.u8("frame type");
  if (raw_type > static_cast<std::uint8_t>(FrameType::kMetricSnapshot)) {
    throw util::Error("unknown telemetry frame type byte");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(raw_type);
  frame.topic = r.str("topic");
  frame.sequence = r.u64("sequence");
  frame.payload.assign(r.buf.begin() + static_cast<std::ptrdiff_t>(r.pos),
                       r.buf.end());
  offset += 4 + body;
  return frame;
}

std::vector<Frame> decode_stream(std::span<const std::uint8_t> buffer) {
  std::vector<Frame> frames;
  std::size_t offset = 0;
  while (offset < buffer.size()) {
    frames.push_back(decode_frame(buffer, offset));
  }
  return frames;
}

// --- payloads ---------------------------------------------------------------

std::vector<std::uint8_t> encode(const TraceSpanPayload& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(49);
  put_i32(out, payload.tenant);
  put_u64(out, payload.event.key);
  put_u8(out, static_cast<std::uint8_t>(payload.event.kind));
  put_u64(out, payload.event.entity);
  put_u64(out, payload.event.sequence);
  put_u64(out, payload.event.tick);
  put_f64(out, payload.event.time_h);
  put_f64(out, payload.event.value);
  return out;
}

std::vector<std::uint8_t> encode(const MetricDeltaPayload& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(1 + 2 + payload.name.size() + 20 + 8);
  put_u8(out, static_cast<std::uint8_t>(payload.type));
  put_string(out, payload.name);
  put_labels(out, payload.labels);
  put_f64(out, payload.value);
  return out;
}

std::vector<std::uint8_t> encode(const MetricSnapshotPayload& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(1 + 2 + payload.name.size() + 20 + 8 + 48);
  put_u8(out, static_cast<std::uint8_t>(payload.type));
  put_string(out, payload.name);
  put_labels(out, payload.labels);
  put_f64(out, payload.value);
  put_u64(out, payload.latency.count);
  put_f64(out, payload.latency.min);
  put_f64(out, payload.latency.max);
  put_f64(out, payload.latency.p50);
  put_f64(out, payload.latency.p90);
  put_f64(out, payload.latency.p99);
  return out;
}

TraceSpanPayload decode_trace_span(std::span<const std::uint8_t> payload) {
  Reader r{payload, 0};
  TraceSpanPayload p;
  p.tenant = r.i32("tenant");
  p.event.key = r.u64("key");
  const std::uint8_t kind = r.u8("span kind");
  if (kind >= kSpanKindCount) {
    throw util::Error("unknown span kind byte in trace frame");
  }
  p.event.kind = static_cast<SpanKind>(kind);
  p.event.entity = r.u64("entity");
  p.event.sequence = r.u64("sequence");
  p.event.tick = r.u64("tick");
  p.event.time_h = r.f64("time_h");
  p.event.value = r.f64("value");
  util::ensure(r.done(), "trailing bytes after trace-span payload");
  return p;
}

MetricDeltaPayload decode_metric_delta(std::span<const std::uint8_t> payload) {
  Reader r{payload, 0};
  MetricDeltaPayload p;
  p.type = metric_type_of(r.u8("metric type"));
  p.name = r.str("metric name");
  p.labels = read_labels(r);
  p.value = checked_value(p.type, r.f64("value"));
  util::ensure(r.done(), "trailing bytes after metric-delta payload");
  return p;
}

MetricSnapshotPayload decode_metric_snapshot(
    std::span<const std::uint8_t> payload) {
  Reader r{payload, 0};
  MetricSnapshotPayload p;
  p.type = metric_type_of(r.u8("metric type"));
  p.name = r.str("metric name");
  p.labels = read_labels(r);
  p.value = checked_value(p.type, r.f64("value"));
  p.latency.count = r.u64("latency count");
  p.latency.min = r.f64("latency min");
  p.latency.max = r.f64("latency max");
  p.latency.p50 = r.f64("latency p50");
  p.latency.p90 = r.f64("latency p90");
  p.latency.p99 = r.f64("latency p99");
  util::ensure(r.done(), "trailing bytes after metric-snapshot payload");
  return p;
}

// --- topics -----------------------------------------------------------------

std::string trace_topic(std::uint32_t tenant, std::int32_t channel) {
  std::string topic = "trace/tenant=" + std::to_string(tenant);
  if (channel >= 0) {
    topic += "/channel=";
    topic += std::to_string(channel);
  }
  return topic;
}

std::string metric_topic(const std::string& name) {
  return "metrics/" + name;
}

}  // namespace idp::obs
