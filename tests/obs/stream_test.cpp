/// \file stream_test.cpp
/// Telemetry bus suite: bounded-subscriber admission (block / drop-oldest,
/// drops counted loudly), per-subscriber frame conservation, concurrent
/// N-publisher x M-subscriber fan-out with per-topic FIFO, close()
/// semantics, snapshot-then-delta subscription, the replay reorder buffer,
/// and the end-to-end streaming guarantees: published frame sequences are
/// a pure function of (log, configuration) -- parallelism-invariant for
/// Scheduler::replay, fault-schedule-invariant for the cluster -- the
/// batch trace/metrics surfaces end identical to the non-streaming path,
/// and a live aggregation subscriber rebuilds the exact end-of-run
/// MetricsSnapshot.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/determinism.hpp"
#include "netsim/sim_network.hpp"
#include "obs/frame.hpp"
#include "obs/stream.hpp"
#include "serve/scheduler.hpp"
#include "serve/shard_coordinator.hpp"
#include "serve/traffic.hpp"
#include "util/error.hpp"

namespace idp {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

obs::SubscriberConfig sub(std::string name, std::size_t capacity = 1024,
                          obs::OverflowPolicy policy =
                              obs::OverflowPolicy::kBlock,
                          std::string topic_prefix = "") {
  obs::SubscriberConfig config;
  config.name = std::move(name);
  config.capacity = capacity;
  config.policy = policy;
  config.topic_prefix = std::move(topic_prefix);
  return config;
}

std::vector<std::uint8_t> span_payload(std::uint64_t key) {
  obs::TraceSpanPayload payload;
  payload.tenant = 0;
  payload.event = obs::TraceEvent{key, obs::SpanKind::kExecution, 0, 0, 0,
                                  0.0, 0.0};
  return obs::encode(payload);
}

void expect_conserved(const obs::SubscriberStats& stats, const char* who) {
  EXPECT_EQ(stats.published, stats.delivered + stats.dropped + stats.pending)
      << who << ": published " << stats.published << " != delivered "
      << stats.delivered << " + dropped " << stats.dropped << " + pending "
      << stats.pending;
}

// --- bus admission ----------------------------------------------------------

TEST(TelemetryBus, PublishFansOutWithGaplessPerTopicSequences) {
  obs::TelemetryBus bus;
  const auto everything = bus.subscribe(sub("all"));
  const auto filtered =
      bus.subscribe(sub("t0", 1024, obs::OverflowPolicy::kBlock, "trace/tenant=0"));

  bus.publish(obs::FrameType::kTraceSpan, "trace/tenant=0", span_payload(1));
  bus.publish(obs::FrameType::kTraceSpan, "trace/tenant=1", span_payload(2));
  bus.publish(obs::FrameType::kTraceSpan, "trace/tenant=0", span_payload(3));

  EXPECT_EQ(bus.frames_published(), 3u);
  EXPECT_EQ(bus.topic_sequence("trace/tenant=0"), 2u);
  EXPECT_EQ(bus.topic_sequence("trace/tenant=1"), 1u);
  EXPECT_EQ(bus.topics(),
            (std::vector<std::string>{"trace/tenant=0", "trace/tenant=1"}));

  obs::Frame frame;
  ASSERT_TRUE(everything->try_pop(frame));
  EXPECT_EQ(frame.topic, "trace/tenant=0");
  EXPECT_EQ(frame.sequence, 0u);
  ASSERT_TRUE(everything->try_pop(frame));
  EXPECT_EQ(frame.topic, "trace/tenant=1");
  EXPECT_EQ(frame.sequence, 0u);
  ASSERT_TRUE(everything->try_pop(frame));
  EXPECT_EQ(frame.topic, "trace/tenant=0");
  EXPECT_EQ(frame.sequence, 1u);
  EXPECT_FALSE(everything->try_pop(frame));

  // The prefix subscriber saw only tenant 0's topic, in FIFO order.
  ASSERT_TRUE(filtered->try_pop(frame));
  EXPECT_EQ(frame.sequence, 0u);
  ASSERT_TRUE(filtered->try_pop(frame));
  EXPECT_EQ(frame.sequence, 1u);
  EXPECT_FALSE(filtered->try_pop(frame));
  EXPECT_EQ(filtered->stats().published, 2u);
}

TEST(TelemetryBus, DropOldestEvictsTheFrontAndCountsLoudly) {
  obs::TelemetryBus bus;
  const auto subscriber = bus.subscribe(
      sub("lossy", 2, obs::OverflowPolicy::kDropOldest));
  for (std::uint64_t k = 0; k < 5; ++k) {
    bus.publish(obs::FrameType::kTraceSpan, "t", span_payload(k));
  }
  const obs::SubscriberStats stats = subscriber->stats();
  EXPECT_EQ(stats.published, 5u);
  EXPECT_EQ(stats.dropped, 3u);
  EXPECT_EQ(stats.pending, 2u);
  expect_conserved(stats, "lossy");

  // What survives is the *newest* window, still in order.
  obs::Frame frame;
  ASSERT_TRUE(subscriber->try_pop(frame));
  EXPECT_EQ(frame.sequence, 3u);
  ASSERT_TRUE(subscriber->try_pop(frame));
  EXPECT_EQ(frame.sequence, 4u);
  expect_conserved(subscriber->stats(), "lossy after drain");
}

TEST(TelemetryBus, BlockPolicyBackpressuresThePublisher) {
  obs::TelemetryBus bus;
  const auto subscriber = bus.subscribe(
      sub("strict", 1, obs::OverflowPolicy::kBlock));

  constexpr std::uint64_t kFrames = 64;
  std::thread consumer([&] {
    obs::Frame frame;
    for (std::uint64_t k = 0; k < kFrames; ++k) {
      ASSERT_TRUE(subscriber->pop(frame));
      EXPECT_EQ(frame.sequence, k) << "blocking admission reordered frames";
    }
  });
  for (std::uint64_t k = 0; k < kFrames; ++k) {
    bus.publish(obs::FrameType::kTraceSpan, "t", span_payload(k));
  }
  consumer.join();

  const obs::SubscriberStats stats = subscriber->stats();
  EXPECT_EQ(stats.published, kFrames);
  EXPECT_EQ(stats.delivered, kFrames);
  EXPECT_EQ(stats.dropped, 0u);  // backpressure never drops
  expect_conserved(stats, "strict");
}

TEST(TelemetryBus, CloseIsPermanentAndDrainsAcceptedFrames) {
  obs::TelemetryBus bus;
  const auto subscriber = bus.subscribe(sub("drain"));
  bus.publish(obs::FrameType::kTraceSpan, "t", span_payload(1));
  bus.publish(obs::FrameType::kTraceSpan, "t", span_payload(2));
  bus.close();
  bus.close();  // idempotent
  EXPECT_TRUE(bus.closed());
  EXPECT_THROW(
      bus.publish(obs::FrameType::kTraceSpan, "t", span_payload(3)),
      util::Error);
  EXPECT_THROW((void)bus.subscribe(sub("late")), util::Error);

  // Accepted frames deliver first; only then does pop() report closure.
  obs::Frame frame;
  ASSERT_TRUE(subscriber->pop(frame));
  EXPECT_EQ(frame.sequence, 0u);
  ASSERT_TRUE(subscriber->pop(frame));
  EXPECT_EQ(frame.sequence, 1u);
  EXPECT_FALSE(subscriber->pop(frame));
  expect_conserved(subscriber->stats(), "drain");
}

TEST(TelemetryBus, CloseAbandonsABlockedPublisherLoudly) {
  obs::TelemetryBus bus;
  const auto subscriber = bus.subscribe(
      sub("stuck", 1, obs::OverflowPolicy::kBlock));
  bus.publish(obs::FrameType::kTraceSpan, "t", span_payload(1));  // fills it

  std::thread publisher([&] {
    // Blocks on the full queue until close(), then abandons the frame.
    bus.publish(obs::FrameType::kTraceSpan, "t", span_payload(2));
  });
  while (subscriber->stats().published < 2) std::this_thread::yield();
  bus.close();
  publisher.join();

  const obs::SubscriberStats stats = subscriber->stats();
  EXPECT_EQ(stats.published, 2u);
  EXPECT_EQ(stats.dropped, 1u);  // the abandoned frame, counted loudly
  EXPECT_EQ(stats.pending, 1u);
  expect_conserved(stats, "stuck");
}

// --- concurrent fan-out -----------------------------------------------------

TEST(TelemetryBus, ConcurrentFanOutPreservesPerTopicFifoAndConservation) {
  // 4 publisher threads (one topic each) x 3 subscribers with mixed
  // admission: a roomy kBlock subscriber must see every frame of every
  // topic gaplessly; a tight kDropOldest subscriber may drop but must
  // account for every frame; a prefix subscriber sees exactly its topic.
  constexpr std::size_t kPublishers = 4;
  constexpr std::uint64_t kPerPublisher = 200;

  obs::TelemetryBus bus;
  const auto complete = bus.subscribe(
      sub("complete", kPublishers * kPerPublisher));
  const auto lossy = bus.subscribe(
      sub("lossy", 16, obs::OverflowPolicy::kDropOldest));
  const auto filtered = bus.subscribe(sub(
      "filtered", kPerPublisher, obs::OverflowPolicy::kBlock,
      "trace/tenant=0"));

  std::vector<std::thread> publishers;
  for (std::size_t p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&bus, p] {
      const std::string topic = obs::trace_topic(static_cast<std::uint32_t>(p));
      for (std::uint64_t k = 0; k < kPerPublisher; ++k) {
        bus.publish(obs::FrameType::kTraceSpan, topic, span_payload(k));
      }
    });
  }
  for (std::thread& t : publishers) t.join();
  bus.close();

  const auto drain_and_check = [](obs::TelemetrySubscriber& subscriber,
                                  const char* who) {
    // Per-topic sequences must be strictly increasing in delivery order
    // (FIFO per topic survives interleaving and eviction alike).
    std::map<std::string, std::uint64_t> next;
    obs::Frame frame;
    std::uint64_t drained = 0;
    while (subscriber.pop(frame)) {
      const auto it = next.find(frame.topic);
      if (it != next.end()) {
        EXPECT_GE(frame.sequence, it->second)
            << who << ": FIFO violated on " << frame.topic;
      }
      next[frame.topic] = frame.sequence + 1;
      ++drained;
    }
    return drained;
  };

  const std::uint64_t total = kPublishers * kPerPublisher;
  EXPECT_EQ(bus.frames_published(), total);
  EXPECT_EQ(drain_and_check(*complete, "complete"), total);
  const std::uint64_t lossy_drained = drain_and_check(*lossy, "lossy");
  EXPECT_EQ(drain_and_check(*filtered, "filtered"), kPerPublisher);

  const std::vector<obs::SubscriberStats> stats = bus.subscriber_stats();
  ASSERT_EQ(stats.size(), 3u);
  expect_conserved(stats[0], "complete");
  expect_conserved(stats[1], "lossy");
  expect_conserved(stats[2], "filtered");
  EXPECT_EQ(stats[0].delivered, total);
  EXPECT_EQ(stats[0].dropped, 0u);
  EXPECT_EQ(stats[1].delivered + stats[1].dropped, total);
  EXPECT_EQ(stats[1].delivered, lossy_drained);
  EXPECT_EQ(stats[2].published, kPerPublisher);

  // The same identity through the metrics surface: obs.bus.* balances per
  // subscriber and in aggregate under stream_conservation_rules().
  obs::MetricsRegistry registry;
  bus.publish_metrics(registry);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const obs::ConservationReport report = obs::check_conservation(
      snapshot, obs::stream_conservation_rules());
  EXPECT_TRUE(report.ok);
  for (std::size_t i = 0; i < stats.size(); ++i) {
    obs::MetricLabels labels;
    labels.subscriber = static_cast<std::int32_t>(i);
    EXPECT_EQ(snapshot.value("obs.bus.published", labels),
              static_cast<double>(stats[i].published));
    EXPECT_EQ(snapshot.value("obs.bus.delivered", labels) +
                  snapshot.value("obs.bus.dropped", labels) +
                  snapshot.value("obs.bus.pending", labels),
              static_cast<double>(stats[i].published))
        << "conservation broken for subscriber " << i;
  }
}

// --- snapshot-then-delta ----------------------------------------------------

TEST(TelemetryBus, SnapshotThenDeltaResumesCountersAndGaugesExactly) {
  obs::MetricsRegistry publisher_registry;
  publisher_registry.counter("serve.queue.accepted").add(7);
  publisher_registry.gauge("serve.queue.depth").set(3.0);

  obs::TelemetryBus bus;
  const auto late = bus.subscribe(
      sub("late", 1024, obs::OverflowPolicy::kBlock, "metrics/"),
      publisher_registry.snapshot());

  // Updates after the join stream as deltas.
  publisher_registry.counter("serve.queue.accepted").add(2);
  obs::MetricDeltaPayload delta;
  delta.type = obs::MetricType::kCounter;
  delta.name = "serve.queue.accepted";
  delta.value = 2.0;
  bus.publish(obs::FrameType::kMetricDelta, obs::metric_topic(delta.name),
              obs::encode(delta));
  bus.close();

  obs::LiveAggregator aggregator;
  aggregator.run(*late);
  EXPECT_TRUE(aggregator.exact());  // counters and gauges resume exactly
  EXPECT_EQ(aggregator.frames_consumed(), 3u);  // 2 snapshot + 1 delta
  const obs::MetricsSnapshot rebuilt = aggregator.snapshot();
  EXPECT_EQ(rebuilt.value("serve.queue.accepted"), 9.0);
  EXPECT_EQ(rebuilt.value("serve.queue.depth"), 3.0);
}

TEST(TelemetryBus, MidRunHistogramSnapshotIsReportedApproximate) {
  obs::MetricsRegistry publisher_registry;
  publisher_registry.histogram("serve.scheduler.queue_wait_s").observe(0.5);

  obs::TelemetryBus bus;
  const auto late = bus.subscribe(sub("late"), publisher_registry.snapshot());
  bus.close();

  obs::LiveAggregator aggregator;
  aggregator.run(*late);
  // Histogram bins are not on the wire: a mid-run join cannot rebuild
  // prior observations, and the aggregator says so instead of pretending.
  EXPECT_FALSE(aggregator.exact());
  EXPECT_TRUE(aggregator.snapshot().has("serve.scheduler.queue_wait_s"));
}

// --- sequencer --------------------------------------------------------------

TEST(StreamSequencer, PublishesDepositsInLogOrder) {
  obs::TelemetryBus bus;
  const auto subscriber = bus.subscribe(sub("all"));
  obs::StreamSequencer sequencer(obs::TelemetryStream{&bus}, 3);

  const auto capture_of = [](std::uint64_t key) {
    obs::TelemetryCapture capture;
    capture.tenant = 0;
    capture.span(key, obs::SpanKind::kLeaseGrant);
    return capture;
  };

  sequencer.deposit(2, capture_of(22));  // completion order 2, 0, 1
  EXPECT_EQ(sequencer.published(), 0u);  // holds until the prefix completes
  sequencer.deposit(0, capture_of(20));
  EXPECT_EQ(sequencer.published(), 1u);
  sequencer.deposit(1, capture_of(21));
  EXPECT_EQ(sequencer.published(), 3u);
  EXPECT_THROW(sequencer.deposit(1, capture_of(21)), util::Error);

  obs::Frame frame;
  for (const std::uint64_t expected_key : {20, 21, 22}) {
    ASSERT_TRUE(subscriber->try_pop(frame));
    EXPECT_EQ(obs::decode_trace_span(frame.payload).event.key, expected_key);
  }
}

TEST(TelemetryStream, CommitReachesEverySurfaceExactlyOnce) {
  obs::TelemetryBus bus;
  const auto subscriber = bus.subscribe(sub("all"));
  obs::TraceRecorder trace;
  obs::MetricsRegistry registry;
  const obs::TelemetryStream sink{&bus, &trace, &registry};

  obs::TelemetryCapture capture;
  capture.tenant = 1;
  capture.span(9, obs::SpanKind::kLeaseGrant);
  capture.span(9, obs::SpanKind::kLeaseGrant);  // duplicate collapses
  capture.count("serve.service.requests", {}, 1);
  capture.observe("serve.scheduler.queue_wait_s", {}, 0.25);
  sink.commit(capture);

  // Each surface saw the capture once: one span (the duplicate collapsed
  // before recording), each op applied once.
  EXPECT_EQ(trace.size(), 1u);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.value("serve.service.requests"), 1.0);
  EXPECT_EQ(snapshot.value("serve.scheduler.queue_wait_s"), 1.0);
  // The bus got one frame per canonical span and per op, spans first.
  EXPECT_EQ(bus.frames_published(), 3u);
  obs::Frame frame;
  ASSERT_TRUE(subscriber->try_pop(frame));
  EXPECT_EQ(frame.type, obs::FrameType::kTraceSpan);
  obs::LiveAggregator aggregator;
  while (subscriber->try_pop(frame)) {
    EXPECT_EQ(frame.type, obs::FrameType::kMetricDelta);
    aggregator.consume(frame);
  }
  EXPECT_EQ(aggregator.snapshot().samples.size(), snapshot.samples.size());

  // A sink with nothing attached accepts the same capture and drops it.
  obs::TelemetryStream{}.commit(capture);
  EXPECT_EQ(bus.frames_published(), 3u);
  EXPECT_EQ(trace.size(), 1u);
}

// --- end-to-end: the streaming serve guarantees ------------------------------

quant::CalibrationStore& shared_store() {
  static quant::CalibrationStore store = [] {
    quant::CampaignConfig campaign;
    campaign.seed = 424243;
    campaign.calibration_points = 4;
    campaign.blank_measurements = 4;
    campaign.ca_duration_s = 6.0;
    return quant::CalibrationStore(campaign);
  }();
  return store;
}

serve::ServiceConfig streamed_service_config() {
  serve::ServiceConfig config;
  config.panel = {bio::TargetId::kGlucose, bio::TargetId::kLactate};
  config.engine_seed = 9001;
  fault::DegradationParams aging;
  aging.fouling_rate_per_day = 0.05;
  aging.enzyme_decay_per_day = 0.02;
  aging.seed = 77;
  config.degradation = fault::DegradationModel(aging);
  config.recalibration_interval_days = 4.0;
  return config;
}

const std::vector<serve::Request>& streamed_log() {
  static const std::vector<serve::Request> log = [] {
    serve::DiagnosticsService reference(shared_store(),
                                        streamed_service_config());
    serve::TrafficSpec spec;
    spec.requests = 16;
    spec.sessions = 4;
    spec.seed = 13;
    spec.duration_h = 9.0 * 24.0;  // crosses recalibration epochs
    return serve::synthesize_traffic(spec, reference);
  }();
  return log;
}

std::uint64_t trace_digest(const std::vector<obs::TraceEvent>& events) {
  test::BitDigest d;
  for (const obs::TraceEvent& e : events) {
    d.add_u64(e.key);
    d.add_u64(static_cast<std::uint64_t>(e.kind));
    d.add_u64(e.entity);
    d.add_u64(e.sequence);
    d.add_u64(e.tick);
    d.add(e.time_h);
    d.add(e.value);
  }
  d.add_u64(events.size());
  return d.value();
}

/// Drain a recorder subscriber into the concatenated frame bytes -- the
/// exact wire a remote consumer would see.
std::vector<std::uint8_t> drain_bytes(obs::TelemetrySubscriber& subscriber) {
  std::vector<std::uint8_t> bytes;
  obs::Frame frame;
  while (subscriber.pop(frame)) obs::encode_frame(frame, bytes);
  return bytes;
}

TEST(TelemetryStreaming, ReplayFramesAreParallelismInvariantAndFoldExact) {
  // Baseline: the non-streaming batch surfaces.
  std::uint64_t batch_trace_digest = 0;
  std::string batch_metrics_csv;
  const std::string dir = ::testing::TempDir();
  {
    serve::DiagnosticsService service(shared_store(),
                                      streamed_service_config());
    obs::TraceRecorder trace;
    obs::MetricsRegistry metrics;
    service.set_trace(&trace);
    service.set_metrics(&metrics);
    serve::Scheduler scheduler(service);
    (void)scheduler.replay(streamed_log(), 1);
    batch_trace_digest = trace_digest(trace.sorted());
    metrics.snapshot().to_csv(dir + "/batch_metrics.csv");
    batch_metrics_csv = slurp(dir + "/batch_metrics.csv");
  }

  std::vector<std::uint8_t> sequential_bytes;
  for (const std::size_t parallelism : {std::size_t{1}, std::size_t{2},
                                        std::size_t{0}}) {
    serve::DiagnosticsService service(shared_store(),
                                      streamed_service_config());
    obs::TraceRecorder trace;
    obs::MetricsRegistry metrics;
    service.set_trace(&trace);
    service.set_metrics(&metrics);
    obs::TelemetryBus bus;
    const auto recorder = bus.subscribe(sub("recorder", 1u << 14));
    serve::Scheduler scheduler(service);
    scheduler.set_stream(&bus);
    (void)scheduler.replay(streamed_log(), parallelism);
    bus.close();

    // Attaching a bus left the batch surfaces bit-identical to the
    // bus-less replay: streaming is observability, not a behaviour change.
    EXPECT_EQ(trace_digest(trace.sorted()), batch_trace_digest)
        << "trace diverged at parallelism " << parallelism;
    metrics.snapshot().to_csv(dir + "/stream_metrics.csv");
    EXPECT_EQ(slurp(dir + "/stream_metrics.csv"), batch_metrics_csv)
        << "metrics diverged at parallelism " << parallelism;

    const std::vector<std::uint8_t> bytes = drain_bytes(*recorder);
    EXPECT_FALSE(bytes.empty());
    if (parallelism == 1) {
      sequential_bytes = bytes;
    } else {
      EXPECT_EQ(bytes, sequential_bytes)
          << "published frames diverged at parallelism " << parallelism;
    }
    expect_conserved(bus.subscriber_stats()[0], "recorder");
  }
  std::remove((dir + "/batch_metrics.csv").c_str());
  std::remove((dir + "/stream_metrics.csv").c_str());
}

TEST(TelemetryStreaming, LiveAggregatorEqualsEndOfRunSnapshot) {
  serve::DiagnosticsService service(shared_store(), streamed_service_config());
  obs::MetricsRegistry metrics;
  service.set_metrics(&metrics);
  obs::TelemetryBus bus;
  const auto tiles = bus.subscribe(
      sub("tiles", 1u << 14, obs::OverflowPolicy::kBlock, "metrics/"));
  serve::Scheduler scheduler(service);
  scheduler.set_stream(&bus);
  (void)scheduler.replay(streamed_log(), 0);
  bus.close();

  obs::LiveAggregator aggregator;
  aggregator.run(*tiles);
  EXPECT_TRUE(aggregator.exact());  // subscribed from the start
  EXPECT_GT(aggregator.frames_consumed(), 0u);

  // The live tiles -- histograms rebuilt delta by delta -- equal the
  // end-of-run registry snapshot byte for byte.
  const std::string dir = ::testing::TempDir();
  aggregator.snapshot().to_csv(dir + "/live_tiles.csv");
  metrics.snapshot().to_csv(dir + "/end_of_run.csv");
  EXPECT_EQ(slurp(dir + "/live_tiles.csv"), slurp(dir + "/end_of_run.csv"));
  EXPECT_TRUE(aggregator.snapshot().has("serve.service.estimate_mM"));
  std::remove((dir + "/live_tiles.csv").c_str());
  std::remove((dir + "/end_of_run.csv").c_str());
}

TEST(TelemetryStreaming, LiveAggregatorEqualsTheLiveRegistry) {
  // Live mode keeps one latency account: every worker commits the
  // scheduler's completed / queue_wait_s / service_time_s ops in the
  // request's capture, so the registry, a from-the-start aggregator and
  // telemetry(p) all read the same numbers.
  serve::DiagnosticsService service(shared_store(), streamed_service_config());
  obs::MetricsRegistry metrics;
  obs::TelemetryBus bus;
  const auto tiles = bus.subscribe(
      sub("tiles", 1u << 14, obs::OverflowPolicy::kBlock, "metrics/"));
  obs::LiveAggregator aggregator;
  std::thread consumer([&] { aggregator.run(*tiles); });
  serve::SchedulerConfig scheduler_config;
  scheduler_config.queue.capacity = 64;
  scheduler_config.workers = 3;
  serve::Scheduler scheduler(service, scheduler_config);
  scheduler.set_metrics(&metrics);
  scheduler.set_stream(&bus);
  scheduler.start();
  for (const serve::Request& request : streamed_log()) {
    ASSERT_EQ(scheduler.submit_wait(request), serve::Admission::kAccepted);
  }
  scheduler.drain_and_stop();
  bus.close();
  consumer.join();

  const obs::MetricsSnapshot registry = metrics.snapshot();
  EXPECT_TRUE(aggregator.exact());
  const std::string dir = ::testing::TempDir();
  aggregator.snapshot().to_jsonl(dir + "/live_account_tiles.jsonl");
  registry.to_jsonl(dir + "/live_account_registry.jsonl");
  EXPECT_EQ(slurp(dir + "/live_account_tiles.jsonl"),
            slurp(dir + "/live_account_registry.jsonl"));
  std::remove((dir + "/live_account_tiles.jsonl").c_str());
  std::remove((dir + "/live_account_registry.jsonl").c_str());

  EXPECT_EQ(registry.sum("serve.scheduler.completed"),
            static_cast<double>(streamed_log().size()));
  EXPECT_EQ(scheduler.completed(), streamed_log().size());
  for (std::size_t p = 0; p < serve::kPriorityCount; ++p) {
    obs::MetricLabels labels;
    labels.priority = static_cast<std::int32_t>(p);
    const serve::PriorityTelemetry t =
        scheduler.telemetry(static_cast<serve::Priority>(p));
    const obs::MetricSample* completed =
        registry.find("serve.scheduler.completed", labels);
    const obs::MetricSample* queue_wait =
        registry.find("serve.scheduler.queue_wait_s", labels);
    const obs::MetricSample* service_time =
        registry.find("serve.scheduler.service_time_s", labels);
    if (completed == nullptr) {  // no request of this class in the log
      EXPECT_EQ(t.completed, 0u);
      EXPECT_EQ(queue_wait, nullptr);
      EXPECT_EQ(service_time, nullptr);
      continue;
    }
    ASSERT_NE(queue_wait, nullptr);
    ASSERT_NE(service_time, nullptr);
    EXPECT_EQ(static_cast<double>(t.completed), completed->value);
    EXPECT_EQ(t.queue_wait.summary(), queue_wait->latency);
    EXPECT_EQ(t.service_time.summary(), service_time->latency);
  }
}

TEST(TelemetryStreaming, ClusterFramesAreInvariantToTheFaultSchedule) {
  // The cluster streams captures during the execution phase, before
  // transport and merge -- so two hostile replays with *different* fault
  // schedules publish byte-identical frame sequences.
  const auto run = [](std::uint64_t net_seed) {
    serve::ShardClusterConfig cluster_config;
    cluster_config.router.shards = 2;
    serve::ShardCluster cluster(shared_store(), streamed_service_config(),
                                cluster_config);
    obs::TelemetryBus bus;
    const auto recorder = bus.subscribe(sub("recorder", 1u << 14));
    cluster.set_stream(&bus);

    test::SimNetConfig net;
    net.seed = net_seed;
    net.max_delay_ticks = 24;
    net.duplicate_prob = 0.10;
    net.drop_prob = 0.05;
    test::SimNetTransport transport(net);
    const serve::ShardedReplayResult result =
        cluster.replay(streamed_log(), 2, &transport);
    bus.close();
    EXPECT_EQ(result.responses.size(), streamed_log().size());
    return drain_bytes(*recorder);
  };

  const std::vector<std::uint8_t> bytes_a = run(0xA11CE);
  const std::vector<std::uint8_t> bytes_b = run(0xB0B);
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b)
      << "cluster stream leaked the transport fault schedule";
}

TEST(TelemetryStreaming, LiveModeStreamsAdmissionAndCompletionFrames) {
  serve::DiagnosticsService service(shared_store(), streamed_service_config());
  obs::TelemetryBus bus;
  const auto recorder = bus.subscribe(sub("recorder", 1u << 14));
  serve::SchedulerConfig scheduler_config;
  scheduler_config.queue.capacity = 64;
  scheduler_config.workers = 2;
  serve::Scheduler scheduler(service, scheduler_config);
  scheduler.set_stream(&bus);
  scheduler.start();
  for (const serve::Request& request : streamed_log()) {
    (void)scheduler.submit_wait(request);
  }
  scheduler.drain_and_stop();
  bus.close();

  // Live frames arrive in completion order (wall clock is in them), but
  // the span taxonomy must be complete: every request streamed its
  // admission, lease grant and queue-wait spans.
  std::size_t admissions = 0, leases = 0, queue_waits = 0;
  obs::Frame frame;
  while (recorder->pop(frame)) {
    if (frame.type != obs::FrameType::kTraceSpan) continue;
    const obs::SpanKind kind =
        obs::decode_trace_span(frame.payload).event.kind;
    if (kind == obs::SpanKind::kAdmission) ++admissions;
    if (kind == obs::SpanKind::kLeaseGrant) ++leases;
    if (kind == obs::SpanKind::kQueueWait) ++queue_waits;
  }
  EXPECT_EQ(admissions, streamed_log().size());
  EXPECT_EQ(leases, streamed_log().size());
  EXPECT_EQ(queue_waits, streamed_log().size());
  expect_conserved(bus.subscriber_stats()[0], "recorder");
}

}  // namespace
}  // namespace idp
