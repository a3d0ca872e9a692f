/// \file scheduler_test.cpp
/// Direct coverage of serve/scheduler: per-priority telemetry accounts for
/// every live completion, PriorityTelemetry::merge is the cross-worker /
/// cross-shard aggregation it claims to be, live-mode CSV output is byte
/// identical to the replay of the same log, and the lifecycle edges
/// (drain_and_stop idempotent, restart-after-drain throws, attaching
/// telemetry while running throws, empty replay).

#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"
#include "quant/calibration_store.hpp"
#include "serve/traffic.hpp"
#include "util/error.hpp"

namespace idp::serve {
namespace {

quant::CalibrationStore& shared_store() {
  static quant::CalibrationStore store = [] {
    quant::CampaignConfig campaign;
    campaign.seed = 424242;
    campaign.calibration_points = 4;
    campaign.blank_measurements = 4;
    campaign.ca_duration_s = 6.0;
    return quant::CalibrationStore(campaign);
  }();
  return store;
}

ServiceConfig service_config() {
  ServiceConfig config;
  config.panel = {bio::TargetId::kGlucose, bio::TargetId::kLactate};
  config.engine_seed = 99;
  return config;
}

std::vector<Request> traffic_log(DiagnosticsService& service,
                                 std::size_t requests = 18) {
  TrafficSpec traffic;
  traffic.requests = requests;
  traffic.sessions = 4;
  traffic.seed = 23;
  traffic.duration_h = 48.0;
  return synthesize_traffic(traffic, service);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Scheduler, TelemetryAccountsEveryCompletionPerPriority) {
  DiagnosticsService service(shared_store(), service_config());
  const std::vector<Request> log = traffic_log(service);

  SchedulerConfig config;
  config.workers = 3;
  Scheduler scheduler(service, config);
  scheduler.start();
  std::array<std::uint64_t, kPriorityCount> expected{};
  for (const Request& r : log) {
    ASSERT_EQ(scheduler.submit_wait(r), Admission::kAccepted);
    ++expected[static_cast<std::size_t>(r.priority)];
  }
  scheduler.drain_and_stop();

  EXPECT_EQ(scheduler.completed(), log.size());
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < kPriorityCount; ++p) {
    const PriorityTelemetry t =
        scheduler.telemetry(static_cast<Priority>(p));
    EXPECT_EQ(t.completed, expected[p])
        << "priority class " << p << " lost completions";
    EXPECT_EQ(t.queue_wait.count(), expected[p]);
    EXPECT_EQ(t.service_time.count(), expected[p]);
    total += t.completed;
  }
  EXPECT_EQ(total, log.size());
}

TEST(Scheduler, PriorityTelemetryMergeSumsCountsAndHistograms) {
  PriorityTelemetry a;
  a.completed = 3;
  a.queue_wait.add(1e-4);
  a.queue_wait.add(2e-4);
  a.queue_wait.add(3e-4);
  a.service_time.add(5e-3);
  a.service_time.add(6e-3);
  a.service_time.add(7e-3);

  PriorityTelemetry b;
  b.completed = 2;
  b.queue_wait.add(4e-4);
  b.queue_wait.add(8e-4);
  b.service_time.add(1e-2);
  b.service_time.add(2e-2);

  a.merge(b);
  EXPECT_EQ(a.completed, 5u);
  EXPECT_EQ(a.queue_wait.count(), 5u);
  EXPECT_EQ(a.service_time.count(), 5u);
  EXPECT_DOUBLE_EQ(a.queue_wait.min(), 1e-4);
  EXPECT_DOUBLE_EQ(a.queue_wait.max(), 8e-4);
  EXPECT_DOUBLE_EQ(a.service_time.max(), 2e-2);
  // Merging an empty account is the identity.
  const PriorityTelemetry empty;
  a.merge(empty);
  EXPECT_EQ(a.completed, 5u);
  EXPECT_EQ(a.queue_wait.count(), 5u);
}

TEST(Scheduler, LiveCsvOutputIsByteIdenticalToReplay) {
  DiagnosticsService replay_service(shared_store(), service_config());
  const std::vector<Request> log = traffic_log(replay_service);
  Scheduler replayer(replay_service);
  const std::vector<Response> replayed = replayer.replay(log, 1);
  const std::string dir = ::testing::TempDir();
  const std::string canonical = dir + "/sched_replay.csv";
  write_responses_csv(replayed, canonical);

  // Live serving with concurrent workers: the buffered sink must still
  // write the identical canonical file.
  DiagnosticsService live_service(shared_store(), service_config());
  const std::string live_path = dir + "/sched_live.csv";
  CsvResultSink sink(live_path, dir + "/sched_live_telemetry.csv");
  Scheduler scheduler(live_service, SchedulerConfig{.queue = {}, .workers = 4});
  scheduler.start(&sink);
  for (const Request& r : log) {
    ASSERT_EQ(scheduler.submit_wait(r), Admission::kAccepted);
  }
  scheduler.drain_and_stop();
  EXPECT_EQ(slurp(live_path), slurp(canonical))
      << "live scheduling leaked into the deterministic response payload";
}

TEST(Scheduler, DrainAndStopIsIdempotentAndRestartThrows) {
  DiagnosticsService service(shared_store(), service_config());
  Scheduler scheduler(service, SchedulerConfig{.queue = {}, .workers = 2});
  scheduler.start();
  EXPECT_TRUE(scheduler.running());
  scheduler.drain_and_stop();
  EXPECT_FALSE(scheduler.running());
  scheduler.drain_and_stop();  // second call: no-op
  EXPECT_FALSE(scheduler.running());
  EXPECT_THROW(scheduler.start(), std::invalid_argument)
      << "live mode is one-shot; restarting must be loud";
}

TEST(Scheduler, AttachingTelemetryWhileRunningThrows) {
  // The telemetry surfaces are fixed at start(); the workers read them
  // without a lock, so an attach while they run must be refused.
  DiagnosticsService service(shared_store(), service_config());
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  obs::TelemetryBus bus;
  Scheduler scheduler(service, SchedulerConfig{.queue = {}, .workers = 2});
  scheduler.set_trace(&trace);
  scheduler.start();
  EXPECT_THROW(scheduler.set_trace(nullptr), util::Error);
  EXPECT_THROW(scheduler.set_metrics(&metrics), util::Error);
  EXPECT_THROW(scheduler.set_stream(&bus), util::Error);
  const std::vector<Request> log = traffic_log(service, 4);
  for (const Request& r : log) {
    ASSERT_EQ(scheduler.submit_wait(r), Admission::kAccepted);
  }
  scheduler.drain_and_stop();
  // The refused attaches changed nothing: the trace attached before
  // start() kept receiving every request's spans.
  EXPECT_EQ(service.trace(), &trace);
  EXPECT_EQ(service.metrics(), nullptr);
  std::size_t queue_waits = 0;
  for (const obs::TraceEvent& e : trace.sorted()) {
    if (e.kind == obs::SpanKind::kQueueWait) ++queue_waits;
  }
  EXPECT_EQ(queue_waits, log.size());
  EXPECT_EQ(scheduler.completed(), log.size());
}

TEST(Scheduler, ReplayOfEmptyLogIsEmpty) {
  DiagnosticsService service(shared_store(), service_config());
  Scheduler scheduler(service);
  EXPECT_TRUE(scheduler.replay({}, 1).empty());
  EXPECT_TRUE(scheduler.replay({}, 0).empty());
}

}  // namespace
}  // namespace idp::serve
