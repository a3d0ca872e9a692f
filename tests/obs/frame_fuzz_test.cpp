/// \file frame_fuzz_test.cpp
/// Seeded mutation fuzzing of the telemetry wire surface: decode_frame,
/// decode_stream, the three payload decoders and LiveAggregator::consume.
/// A fixed corpus of valid frames is mutated by byte flips, truncations,
/// lying u32 frame lengths and lying u16 string lengths (topic and metric
/// name). Contract: every input either decodes to something that
/// re-encodes to the identical bytes, or throws util::Error -- never a
/// crash, a silent best-effort decode or undefined behaviour (the suite
/// runs under ASan/UBSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "obs/frame.hpp"
#include "obs/stream.hpp"
#include "util/error.hpp"

namespace idp {
namespace {

/// Mutants per corpus frame and mutation kind. Fixed: the run is a pure
/// function of the seed below.
constexpr std::size_t kMutantsPerKind = 400;
constexpr std::uint64_t kFuzzSeed = 0xF022'F4A3'E5EEDULL;

obs::Frame frame_of(obs::FrameType type, std::string topic,
                    std::uint64_t sequence,
                    std::vector<std::uint8_t> payload) {
  obs::Frame frame;
  frame.type = type;
  frame.topic = std::move(topic);
  frame.sequence = sequence;
  frame.payload = std::move(payload);
  return frame;
}

/// Valid frames of every type and metric kind, including edge values the
/// codec must carry bit for bit.
std::vector<obs::Frame> corpus() {
  std::vector<obs::Frame> frames;
  obs::TraceSpanPayload span;
  span.tenant = 3;
  span.event = obs::TraceEvent{42, obs::SpanKind::kExecution, 1, 2, 0, 36.5,
                               1234.0};
  frames.push_back(frame_of(obs::FrameType::kTraceSpan,
                            obs::trace_topic(3, 1), 7, obs::encode(span)));
  span.event = obs::TraceEvent{9, obs::SpanKind::kQueueWait, 2, 0, 0, -0.0,
                               std::numeric_limits<double>::quiet_NaN()};
  frames.push_back(frame_of(obs::FrameType::kTraceSpan, obs::trace_topic(0),
                            0, obs::encode(span)));

  obs::MetricDeltaPayload delta;
  delta.type = obs::MetricType::kCounter;
  delta.name = "serve.scheduler.completed";
  delta.labels.priority = 1;
  delta.value = 3.0;
  frames.push_back(frame_of(obs::FrameType::kMetricDelta,
                            obs::metric_topic(delta.name), 11,
                            obs::encode(delta)));
  delta.type = obs::MetricType::kHistogram;
  delta.name = "serve.scheduler.queue_wait_s";
  delta.value = 0.000125;
  frames.push_back(frame_of(obs::FrameType::kMetricDelta,
                            obs::metric_topic(delta.name), 12,
                            obs::encode(delta)));
  delta.value = std::numeric_limits<double>::infinity();  // past every bin
  frames.push_back(frame_of(obs::FrameType::kMetricDelta,
                            obs::metric_topic(delta.name), 13,
                            obs::encode(delta)));
  delta.type = obs::MetricType::kGauge;
  delta.name = "serve.queue.depth";
  delta.labels = {};
  frames.push_back(frame_of(obs::FrameType::kMetricDelta,
                            obs::metric_topic(delta.name), 0,
                            obs::encode(delta)));

  obs::MetricSnapshotPayload snapshot;
  snapshot.type = obs::MetricType::kHistogram;
  snapshot.name = "serve.service.estimate_mM";
  snapshot.labels.tenant = 2;
  snapshot.labels.channel = 0;
  snapshot.value = 5.0;
  snapshot.latency = {5, 0.5, 9.0, 2.0, 8.0, 9.0};
  frames.push_back(frame_of(obs::FrameType::kMetricSnapshot,
                            obs::metric_topic(snapshot.name), 4,
                            obs::encode(snapshot)));
  snapshot.type = obs::MetricType::kCounter;
  snapshot.name = "serve.queue.accepted";
  snapshot.labels = {};
  snapshot.value = 17.0;
  snapshot.latency = {};
  frames.push_back(frame_of(obs::FrameType::kMetricSnapshot,
                            obs::metric_topic(snapshot.name), 0,
                            obs::encode(snapshot)));
  return frames;
}

/// Byte offset of the payload's u16 metric-name length inside an encoded
/// frame (after u32 length, u8 type, u16 topic length, topic, u64
/// sequence, u8 metric type).
std::size_t metric_name_length_offset(const obs::Frame& frame) {
  return 4 + 1 + 2 + frame.topic.size() + 8 + 1;
}

void put_u16(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint16_t v) {
  bytes[at] = static_cast<std::uint8_t>(v);
  bytes[at + 1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

enum class Mutation { kByteFlip, kTruncate, kFrameLength, kStringLength };

std::vector<std::uint8_t> mutate(const obs::Frame& frame,
                                 const std::vector<std::uint8_t>& bytes,
                                 Mutation kind, std::mt19937_64& rng) {
  std::vector<std::uint8_t> out = bytes;
  switch (kind) {
    case Mutation::kByteFlip: {
      const std::size_t flips = 1 + rng() % 4;
      for (std::size_t k = 0; k < flips; ++k) {
        out[rng() % out.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
      }
      break;
    }
    case Mutation::kTruncate:
      out.resize(rng() % out.size());
      break;
    case Mutation::kFrameLength: {
      // Near the truth (off by a few bytes either way) or anywhere at all.
      const auto body = static_cast<std::uint32_t>(out.size() - 4);
      const std::uint32_t lie =
          rng() % 2 == 0 ? body + static_cast<std::uint32_t>(rng() % 17) - 8
                         : static_cast<std::uint32_t>(rng());
      put_u32(out, 0, lie);
      break;
    }
    case Mutation::kStringLength: {
      const bool metric = frame.type != obs::FrameType::kTraceSpan &&
                          rng() % 2 == 0;
      const std::size_t at = metric ? metric_name_length_offset(frame) : 5;
      const std::uint16_t truth =
          static_cast<std::uint16_t>(out[at] | (out[at + 1] << 8));
      const std::uint16_t lie =
          rng() % 2 == 0
              ? static_cast<std::uint16_t>(truth + rng() % 9 - 4)
              : static_cast<std::uint16_t>(rng());
      put_u16(out, at, lie);
      break;
    }
  }
  return out;
}

/// Either `decode` succeeds and `encode` reproduces `bytes` exactly, or it
/// throws util::Error.
template <typename Decode, typename Encode>
void round_trips_or_throws(std::span<const std::uint8_t> bytes,
                           Decode decode, Encode encode,
                           const std::string& what) {
  try {
    const auto value = decode(bytes);
    const std::vector<std::uint8_t> again = encode(value);
    EXPECT_TRUE(std::equal(again.begin(), again.end(), bytes.begin(),
                           bytes.end()))
        << what << " decoded but did not re-encode to the same bytes";
  } catch (const util::Error&) {
  }
}

/// The full contract for one candidate frame buffer.
void check_input(const std::vector<std::uint8_t>& bytes,
                 obs::LiveAggregator& aggregator, const std::string& what,
                 std::size_t& decoded_frames) {
  obs::Frame frame;
  bool decoded = false;
  try {
    std::size_t offset = 0;
    frame = obs::decode_frame(bytes, offset);
    decoded = true;
    ASSERT_LE(offset, bytes.size()) << what;
    EXPECT_EQ(obs::encode_frame(frame),
              std::vector<std::uint8_t>(bytes.begin(),
                                        bytes.begin() +
                                            static_cast<std::ptrdiff_t>(offset)))
        << what << ": frame did not re-encode to its bytes";
  } catch (const util::Error&) {
  }
  // decode_stream over the same buffer: the whole buffer or an error.
  round_trips_or_throws(
      bytes, [](auto b) { return obs::decode_stream(b); },
      [](const std::vector<obs::Frame>& frames) {
        std::vector<std::uint8_t> out;
        for (const obs::Frame& f : frames) obs::encode_frame(f, out);
        return out;
      },
      what + " (stream)");
  if (!decoded) return;
  ++decoded_frames;

  // Every payload decoder on every decoded payload, whatever the type byte
  // claims: cross-typed payloads are hostile input too.
  round_trips_or_throws(
      frame.payload, [](auto b) { return obs::decode_trace_span(b); },
      [](const obs::TraceSpanPayload& p) { return obs::encode(p); },
      what + " (trace span)");
  round_trips_or_throws(
      frame.payload, [](auto b) { return obs::decode_metric_delta(b); },
      [](const obs::MetricDeltaPayload& p) { return obs::encode(p); },
      what + " (metric delta)");
  round_trips_or_throws(
      frame.payload, [](auto b) { return obs::decode_metric_snapshot(b); },
      [](const obs::MetricSnapshotPayload& p) { return obs::encode(p); },
      what + " (metric snapshot)");

  // The aggregator either folds the frame in or refuses it loudly; one
  // aggregator sees every mutant, so re-typed series collide too.
  try {
    aggregator.consume(frame);
  } catch (const util::Error&) {
  }
}

TEST(TelemetryFrameFuzz, EveryMutantRoundTripsOrThrowsUtilError) {
  std::mt19937_64 rng(kFuzzSeed);
  obs::LiveAggregator aggregator;
  std::size_t inputs = 0, decoded_frames = 0;
  const std::vector<obs::Frame> frames = corpus();
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const std::vector<std::uint8_t> bytes = obs::encode_frame(frames[f]);
    check_input(bytes, aggregator, "corpus frame " + std::to_string(f),
                decoded_frames);
    for (const Mutation kind :
         {Mutation::kByteFlip, Mutation::kTruncate, Mutation::kFrameLength,
          Mutation::kStringLength}) {
      for (std::size_t m = 0; m < kMutantsPerKind; ++m) {
        const std::vector<std::uint8_t> mutant =
            mutate(frames[f], bytes, kind, rng);
        check_input(mutant, aggregator,
                    "frame " + std::to_string(f) + " mutation " +
                        std::to_string(static_cast<int>(kind)) + " #" +
                        std::to_string(m),
                    decoded_frames);
        ++inputs;
      }
    }
  }
  // The corpus itself decodes, and the mutators leave a share of inputs
  // decodable (flips inside doubles, near-true lengths), so both sides of
  // the contract are exercised.
  EXPECT_GT(decoded_frames, frames.size());
  EXPECT_LT(decoded_frames, inputs);
  EXPECT_GT(aggregator.frames_consumed(), frames.size());
}

TEST(TelemetryFrameFuzz, AggregatorRefusesARetypedSeriesWithUtilError) {
  // A hostile stream can re-send a counter series as a gauge; the wire
  // consumer must refuse it with util::Error, like every other bad frame.
  obs::MetricDeltaPayload delta;
  delta.type = obs::MetricType::kCounter;
  delta.name = "serve.queue.accepted";
  delta.value = 1.0;
  obs::LiveAggregator aggregator;
  aggregator.consume(frame_of(obs::FrameType::kMetricDelta,
                              obs::metric_topic(delta.name), 0,
                              obs::encode(delta)));
  delta.type = obs::MetricType::kGauge;
  EXPECT_THROW(aggregator.consume(frame_of(obs::FrameType::kMetricDelta,
                                           obs::metric_topic(delta.name), 1,
                                           obs::encode(delta))),
               util::Error);
  EXPECT_EQ(aggregator.snapshot().value("serve.queue.accepted"), 1.0);
}

}  // namespace
}  // namespace idp
