/// \file frame_test.cpp
/// Telemetry frame codec suite: byte-deterministic round trips for every
/// payload type, a pinned golden encoding (the wire format is a contract,
/// not an implementation detail), loud decode failures on truncated or
/// malformed buffers, and the topic naming helpers.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "obs/frame.hpp"
#include "util/error.hpp"

namespace idp {
namespace {

obs::Frame make_frame(obs::FrameType type, std::string topic,
                      std::uint64_t sequence,
                      std::vector<std::uint8_t> payload) {
  obs::Frame frame;
  frame.type = type;
  frame.topic = std::move(topic);
  frame.sequence = sequence;
  frame.payload = std::move(payload);
  return frame;
}

TEST(TelemetryFrame, TraceSpanRoundTrip) {
  obs::TraceSpanPayload payload;
  payload.tenant = 3;
  payload.event = obs::TraceEvent{0x123456789abcull, obs::SpanKind::kExecution,
                                  7, 2, 41, 36.5, -0.0625};
  const std::vector<std::uint8_t> bytes = obs::encode(payload);
  EXPECT_EQ(obs::decode_trace_span(bytes), payload);
}

TEST(TelemetryFrame, MetricDeltaRoundTrip) {
  obs::MetricDeltaPayload payload;
  payload.type = obs::MetricType::kHistogram;
  payload.name = "serve.scheduler.queue_wait_s";
  payload.labels.shard = 2;
  payload.labels.priority = 1;
  payload.value = 0.001953125;
  const std::vector<std::uint8_t> bytes = obs::encode(payload);
  EXPECT_EQ(obs::decode_metric_delta(bytes), payload);
}

TEST(TelemetryFrame, MetricSnapshotRoundTrip) {
  obs::MetricSnapshotPayload payload;
  payload.type = obs::MetricType::kHistogram;
  payload.name = "serve.service.estimate_mM";
  payload.labels.tenant = 1;
  payload.labels.channel = 0;
  payload.labels.subscriber = 4;
  payload.value = 12.0;
  payload.latency = {12, 0.25, 9.5, 1.5, 7.0, 9.0};
  const std::vector<std::uint8_t> bytes = obs::encode(payload);
  EXPECT_EQ(obs::decode_metric_snapshot(bytes), payload);
}

TEST(TelemetryFrame, FrameRoundTripAllTypes) {
  const std::vector<obs::Frame> frames{
      make_frame(obs::FrameType::kTraceSpan, "trace/tenant=0", 0,
                 obs::encode(obs::TraceSpanPayload{})),
      make_frame(obs::FrameType::kMetricDelta, "metrics/serve.queue.accepted",
                 17, obs::encode(obs::MetricDeltaPayload{})),
      make_frame(obs::FrameType::kMetricSnapshot,
                 "metrics/serve.scheduler.completed", 3,
                 obs::encode(obs::MetricSnapshotPayload{})),
  };
  std::vector<std::uint8_t> stream;
  for (const obs::Frame& frame : frames) obs::encode_frame(frame, stream);
  EXPECT_EQ(obs::decode_stream(stream), frames);
}

TEST(TelemetryFrame, EncodingIsByteDeterministic) {
  // Two encodes of bitwise-equal fields are identical byte for byte --
  // what lets the determinism sweep digest frame bytes directly.
  obs::TraceSpanPayload payload;
  payload.tenant = 9;
  payload.event = obs::TraceEvent{42, obs::SpanKind::kRecalibration, 1, 5, 0,
                                  96.0, 7.0};
  const obs::Frame frame = make_frame(
      obs::FrameType::kTraceSpan, "trace/tenant=9/channel=1", 12,
      obs::encode(payload));
  EXPECT_EQ(obs::encode_frame(frame), obs::encode_frame(frame));
}

TEST(TelemetryFrame, GoldenEncodingIsPinned) {
  // The wire format is a contract: u32 body_len | u8 type | u16 topic_len
  // | topic | u64 sequence | payload, all little-endian. Changing any of
  // it must be a deliberate act that updates this pin.
  const obs::Frame frame = make_frame(obs::FrameType::kMetricDelta, "m", 2,
                                      {0xAB, 0xCD});
  const std::vector<std::uint8_t> expected{
      0x0e, 0x00, 0x00, 0x00,  // body_len = 1 + 2 + 1 + 8 + 2 = 14
      0x01,                    // type = kMetricDelta
      0x01, 0x00,              // topic_len = 1
      'm',                     // topic
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // sequence = 2
      0xAB, 0xCD,              // payload
  };
  EXPECT_EQ(obs::encode_frame(frame), expected);
}

TEST(TelemetryFrame, DecodeRejectsTruncation) {
  const std::vector<std::uint8_t> whole =
      obs::encode_frame(make_frame(obs::FrameType::kTraceSpan, "trace/tenant=1",
                                   0, obs::encode(obs::TraceSpanPayload{})));
  // Every strict prefix of a valid frame must throw, never best-effort.
  for (std::size_t n = 0; n < whole.size(); ++n) {
    const std::span<const std::uint8_t> prefix(whole.data(), n);
    std::size_t offset = 0;
    EXPECT_THROW((void)obs::decode_frame(prefix, offset), util::Error)
        << "prefix length " << n << " decoded";
  }
}

TEST(TelemetryFrame, DecodeRejectsUnknownType) {
  std::vector<std::uint8_t> bytes =
      obs::encode_frame(make_frame(obs::FrameType::kTraceSpan, "t", 0, {}));
  bytes[4] = 0x7F;  // type byte, after the u32 length prefix
  EXPECT_THROW((void)obs::decode_stream(bytes), util::Error);
}

TEST(TelemetryFrame, DecodeStreamRejectsTrailingGarbage) {
  std::vector<std::uint8_t> bytes =
      obs::encode_frame(make_frame(obs::FrameType::kMetricDelta, "m", 0,
                                   obs::encode(obs::MetricDeltaPayload{})));
  bytes.push_back(0x01);  // a stray partial length prefix
  EXPECT_THROW((void)obs::decode_stream(bytes), util::Error);
}

TEST(TelemetryFrame, PayloadDecodersRejectTrailingBytes) {
  std::vector<std::uint8_t> bytes = obs::encode(obs::TraceSpanPayload{});
  bytes.push_back(0x00);
  EXPECT_THROW((void)obs::decode_trace_span(bytes), util::Error);
}

TEST(TelemetryFrame, MetricDecodersRejectNonCountCounterValues) {
  // A counter value converts back to a u64 count on the consumer side;
  // anything that cannot (NaN, infinities, negatives, fractions, >= 2^64)
  // must be refused at decode time.
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity(),
                        -1.0,
                        0.5,
                        0x1p64,
                        1e300};
  for (const double value : bad) {
    obs::MetricDeltaPayload delta;
    delta.type = obs::MetricType::kCounter;
    delta.name = "serve.queue.accepted";
    delta.value = value;
    EXPECT_THROW((void)obs::decode_metric_delta(obs::encode(delta)),
                 util::Error)
        << "delta counter value " << value;
    obs::MetricSnapshotPayload snapshot;
    snapshot.type = obs::MetricType::kCounter;
    snapshot.name = "serve.queue.accepted";
    snapshot.value = value;
    EXPECT_THROW((void)obs::decode_metric_snapshot(obs::encode(snapshot)),
                 util::Error)
        << "snapshot counter value " << value;
    // Gauges and histograms carry arbitrary doubles.
    delta.type = obs::MetricType::kGauge;
    const std::vector<std::uint8_t> gauge = obs::encode(delta);
    EXPECT_EQ(obs::encode(obs::decode_metric_delta(gauge)), gauge);
  }
  // The largest exact counts still decode.
  for (const double value : {0.0, 1.0, 0x1p53, 0x1p64 - 0x1p11}) {
    obs::MetricDeltaPayload delta;
    delta.type = obs::MetricType::kCounter;
    delta.name = "serve.queue.accepted";
    delta.value = value;
    EXPECT_EQ(obs::decode_metric_delta(obs::encode(delta)).value, value);
  }
}

TEST(TelemetryFrame, TopicHelpers) {
  EXPECT_EQ(obs::trace_topic(3), "trace/tenant=3");
  EXPECT_EQ(obs::trace_topic(3, 1), "trace/tenant=3/channel=1");
  EXPECT_EQ(obs::metric_topic("serve.queue.accepted"),
            "metrics/serve.queue.accepted");
}

TEST(TelemetryFrame, FrameTypeNamesAreComplete) {
  EXPECT_STRNE(obs::to_string(obs::FrameType::kTraceSpan), "unknown");
  EXPECT_STRNE(obs::to_string(obs::FrameType::kMetricDelta), "unknown");
  EXPECT_STRNE(obs::to_string(obs::FrameType::kMetricSnapshot), "unknown");
}

}  // namespace
}  // namespace idp
