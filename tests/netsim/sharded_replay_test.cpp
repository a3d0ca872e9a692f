/// \file sharded_replay_test.cpp
/// The ShardedReplay driver -- the acceptance criterion of the sharded
/// service scale-out: one recorded mixed traffic log (panel scans,
/// quantified reads, QC checks; degradation and scheduled recalibration
/// epochs live) replayed through a K-shard cluster under an injected
/// reorder/delay/duplication fault schedule must merge into a global log
/// *bitwise identical* to single-node Scheduler execution, across
/// K in {1, 2, 4}, five seeds and parallelism {1, 2, hardware}. A CYP
/// panel log, whose CV reads step in lockstep lanes across the requests of
/// each shard, must match sequential execute() -- responses and stream
/// frame bytes -- through K=2 replays under a reorder/duplication profile
/// and under loss, crash and partition. A log with a repeated request id
/// fails before anything executes. Routing, lease-subdomain disjointness
/// and consistent-hash stability ride along.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
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

constexpr std::uint64_t kSeeds[] = {1, 2, 1234, 0xfeedbeef, 2026};
constexpr std::size_t kShardCounts[] = {1, 2, 4};
constexpr std::size_t kLevels[] = {1, 2, 0};  // 0 = hardware concurrency

/// One shared store: campaigns are keyed by (target, protocol) and the
/// service seed lives in the engine, so every seed variant reuses it.
quant::CalibrationStore& shared_store() {
  static quant::CalibrationStore store = [] {
    quant::CampaignConfig campaign;
    campaign.seed = 626262;
    campaign.calibration_points = 4;
    campaign.blank_measurements = 4;
    campaign.ca_duration_s = 6.0;
    return quant::CalibrationStore(campaign);
  }();
  return store;
}

serve::ServiceConfig service_config(std::uint64_t seed) {
  serve::ServiceConfig config;
  config.panel = {bio::TargetId::kGlucose, bio::TargetId::kLactate};
  config.engine_seed = seed;
  fault::DegradationParams aging;
  aging.fouling_rate_per_day = 0.05;
  aging.enzyme_decay_per_day = 0.02;
  aging.seed = seed ^ 0x5ea11;
  config.degradation = fault::DegradationModel(aging);
  config.recalibration_interval_days = 4.0;
  return config;
}

/// One fixed mixed log: 24 requests over 9 days (crossing two epoch
/// boundaries) from 6 sessions across 3 tenants. The *service* seed is
/// what varies per sweep point.
const std::vector<serve::Request>& traffic_log() {
  static const std::vector<serve::Request> log = [] {
    serve::DiagnosticsService reference(shared_store(), service_config(1));
    serve::TrafficSpec spec;
    spec.requests = 24;
    spec.sessions = 6;
    spec.tenants = 3;
    spec.seed = 11;
    spec.duration_h = 9.0 * 24.0;
    return serve::synthesize_traffic(spec, reference);
  }();
  return log;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::uint64_t digest_responses(const std::vector<serve::Response>& responses) {
  test::BitDigest d;
  test::fold(d, std::span<const serve::Response>(responses));
  return d.value();
}

std::uint64_t single_node_digest(std::uint64_t seed) {
  serve::DiagnosticsService service(shared_store(), service_config(seed));
  serve::Scheduler scheduler(service);
  return digest_responses(scheduler.replay(traffic_log(), 1));
}

class ShardedReplay : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardedReplay, MergedLogIsBitwiseIdenticalToSingleNodeUnderFaults) {
  const std::size_t shards = GetParam();
  const std::vector<serve::Request>& log = traffic_log();

  std::uint64_t duplicates_seen = 0;
  std::uint64_t reorder_seen = 0;
  std::vector<std::uint64_t> baselines;
  for (const std::uint64_t seed : kSeeds) {
    const std::uint64_t baseline = single_node_digest(seed);
    baselines.push_back(baseline);
    for (const std::size_t parallelism : kLevels) {
      serve::ShardClusterConfig cluster_config;
      cluster_config.router.shards = shards;
      serve::ShardCluster cluster(shared_store(), service_config(seed),
                                  cluster_config);

      // The reorder/duplication fault profile varies with every sweep
      // point; the merged log must not.
      test::SimNetConfig net;
      net.seed = seed * 1000 + shards * 10 + parallelism;
      net.max_delay_ticks = 32;
      net.duplicate_prob = 0.15;
      test::SimNetTransport transport(net);

      const serve::ShardedReplayResult result =
          cluster.replay(log, parallelism, &transport);
      EXPECT_EQ(digest_responses(result.responses), baseline)
          << "K=" << shards << " seed=" << seed
          << " parallelism=" << parallelism
          << " diverged from single-node execution";

      EXPECT_EQ(std::accumulate(result.per_shard_requests.begin(),
                                result.per_shard_requests.end(),
                                std::size_t{0}),
                log.size());
      EXPECT_GE(result.merge.delivered, log.size());
      duplicates_seen += result.merge.duplicates_seen;
      reorder_seen += result.merge.max_reorder_distance;
    }
  }
  // The harness must actually have been hostile: across 15 fault
  // schedules at 15% duplication, duplicates (and, for K >= 1, reorder)
  // must have been injected and survived.
  EXPECT_GT(duplicates_seen, 0u);
  EXPECT_GT(reorder_seen, 0u);

  // Different service seeds must produce different logs (otherwise the
  // equality above would be vacuous).
  for (std::size_t i = 1; i < baselines.size(); ++i) {
    EXPECT_NE(baselines[i], baselines[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedReplay,
                         ::testing::ValuesIn(kShardCounts),
                         [](const auto& param_info) {
                           return "K" + std::to_string(param_info.param);
                         });

TEST(ShardCluster, LeaseSubdomainsAreDisjointAcrossShards) {
  serve::ShardClusterConfig config;
  config.router.shards = 4;
  serve::ShardCluster cluster(shared_store(), service_config(1), config);
  const serve::LeaseCensus census = cluster.lease_census(traffic_log());
  EXPECT_TRUE(census.disjoint);
  ASSERT_EQ(census.per_shard.size(), 4u);
  std::uint64_t requests = 0, sessions = 0;
  for (const serve::ShardLeaseDomain& domain : census.per_shard) {
    requests += domain.requests;
    sessions += domain.sessions;
    if (domain.requests > 0) {
      EXPECT_GE(domain.first_run_id, serve::kServeRunDomain);
      EXPECT_LT(domain.last_run_id, serve::kServeRecalDomain);
    }
  }
  EXPECT_EQ(requests, traffic_log().size());
  EXPECT_EQ(sessions, 6u) << "every session is owned by exactly one shard";
}

TEST(ShardRouter, RoutingIsDeterministicAndSessionSticky) {
  const serve::ShardRouter router(serve::ShardRouterConfig{.shards = 4});
  const serve::ShardRouter same(serve::ShardRouterConfig{.shards = 4});
  for (const serve::Request& r : traffic_log()) {
    EXPECT_EQ(router.route(r.session), same.route(r.session));
    EXPECT_LT(router.route(r.session), 4u);
  }
}

TEST(ShardRouter, ConsistentHashingMovesFewKeysWhenGrowing) {
  // hash % K remaps ~(K-1)/K of all keys on K -> K+1; the ring must do an
  // order of magnitude better (expected ~1/(K+1), asserted loosely).
  const serve::ShardRouter four(serve::ShardRouterConfig{.shards = 4});
  const serve::ShardRouter five(serve::ShardRouterConfig{.shards = 5});
  constexpr std::size_t kKeys = 4000;
  std::size_t moved = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    serve::SessionKey key;
    key.tenant = static_cast<std::uint32_t>(i % 7);
    key.patient = i;
    key.device = static_cast<std::uint32_t>(i % 3);
    const std::size_t before = four.route(key);
    const std::size_t after = five.route(key);
    if (after != before) {
      ++moved;
      EXPECT_EQ(after, 4u) << "keys may only move to the new shard";
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, kKeys / 2) << "resharding moved far too many keys";
}

TEST(ShardRouter, SpreadsLoadAcrossShards) {
  const serve::ShardRouter router(
      serve::ShardRouterConfig{.shards = 8, .vnodes = 128});
  std::vector<std::size_t> counts(8, 0);
  for (std::size_t i = 0; i < 8000; ++i) {
    serve::SessionKey key;
    key.tenant = static_cast<std::uint32_t>(i % 11);
    key.patient = i * 131;
    key.device = static_cast<std::uint32_t>(i % 2);
    ++counts[router.route(key)];
  }
  for (std::size_t s = 0; s < counts.size(); ++s) {
    EXPECT_GT(counts[s], 8000u / 8 / 4)
        << "shard " << s << " is starved (got " << counts[s] << " of 8000)";
    EXPECT_LT(counts[s], 8000u / 8 * 4)
        << "shard " << s << " is overloaded (got " << counts[s] << " of 8000)";
  }
}

TEST(ShardRouter, ValidatesConfiguration) {
  EXPECT_THROW(serve::ShardRouter(serve::ShardRouterConfig{.shards = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      serve::ShardRouter(serve::ShardRouterConfig{.shards = 1, .vnodes = 0}),
      std::invalid_argument);
}

TEST(ShardCluster, DuplicateRequestIdsFailBeforeAnythingExecutes) {
  // A repeated id would lease one run-id block twice and merge into a
  // short log; the replay must refuse the log up front instead of
  // executing all of it and blaming the transport.
  serve::ShardClusterConfig config;
  config.router.shards = 2;
  serve::ShardCluster cluster(shared_store(), service_config(1), config);
  obs::TraceRecorder trace;
  cluster.set_trace(&trace);
  std::vector<serve::Request> log = traffic_log();
  log.back().id = log.front().id;
  try {
    (void)cluster.replay(log, 1);
    ADD_FAILURE() << "a log with a repeated request id replayed";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("request ids in a log must be unique"),
              std::string::npos)
        << what;
  }
  EXPECT_EQ(trace.size(), 0u) << "the replay executed before refusing";
}

TEST(ShardCluster, AttachingTelemetryWhileRunningThrows) {
  // Each shard scheduler fixed its telemetry surfaces at start(); an
  // attach while the workers run would race them and is refused.
  serve::ShardClusterConfig config;
  config.router.shards = 2;
  config.scheduler.workers = 1;
  serve::ShardCluster cluster(shared_store(), service_config(1), config);
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  obs::TelemetryBus bus;
  cluster.start();
  EXPECT_THROW(cluster.set_trace(&trace), util::Error);
  EXPECT_THROW(cluster.set_metrics(&metrics), util::Error);
  EXPECT_THROW(cluster.set_stream(&bus), util::Error);
  cluster.drain_and_stop();
  EXPECT_EQ(cluster.shard(0).trace(), nullptr);
  EXPECT_EQ(cluster.shard(1).metrics(), nullptr);
  // Stopped again: attaching for a later replay is fine.
  cluster.set_trace(&trace);
  EXPECT_EQ(cluster.shard(1).trace(), &trace);
}

TEST(ResultMerger, DetectsLossLoudly) {
  serve::ResultMerger merger;
  serve::ResponseEnvelope e;
  e.shard = 0;
  e.sequence = 0;
  e.response.request_id = 7;
  merger.accept(e);
  EXPECT_THROW(merger.finish(2), std::invalid_argument)
      << "a short merge must throw, never return a truncated log";
}

TEST(ShardClusterLive, LiveShardedServingMatchesMergedReplayBitwise) {
  // Live mode end-to-end: the same log pushed through K=2 live shard
  // schedulers (hardware workers each, out-of-order completion) must
  // produce the replay's exact response set, and the cross-shard merged
  // telemetry must account for every request.
  const std::vector<serve::Request>& log = traffic_log();
  serve::ShardClusterConfig config;
  config.router.shards = 2;
  config.scheduler.queue.capacity = 64;

  serve::ShardCluster replay_cluster(shared_store(), service_config(3),
                                     config);
  const std::uint64_t replay_digest =
      digest_responses(replay_cluster.replay(log, 1).responses);

  serve::ShardCluster live(shared_store(), service_config(3), config);
  const std::string dir = ::testing::TempDir();
  {
    serve::CsvResultSink sink(dir + "/sharded_live_responses.csv",
                              dir + "/sharded_live_telemetry.csv");
    live.start(&sink);
    for (const serve::Request& r : log) {
      EXPECT_EQ(live.submit_wait(r), serve::Admission::kAccepted);
    }
    live.drain_and_stop();
    EXPECT_EQ(live.completed(), log.size());
  }

  // Cross-shard merged telemetry must account for every request.
  std::uint64_t telemetry_total = 0;
  for (std::size_t p = 0; p < serve::kPriorityCount; ++p) {
    const serve::PriorityTelemetry t =
        live.telemetry(static_cast<serve::Priority>(p));
    EXPECT_EQ(t.queue_wait.count(), t.completed);
    EXPECT_EQ(t.service_time.count(), t.completed);
    telemetry_total += t.completed;
  }
  EXPECT_EQ(telemetry_total, log.size());

  // The live cluster's canonical response CSV must be byte-identical to
  // the CSV of the merged replay (the sink sorts by request id at close,
  // the merger by construction).
  serve::ShardCluster again(shared_store(), service_config(3), config);
  const serve::ShardedReplayResult merged = again.replay(log, 0);
  EXPECT_EQ(digest_responses(merged.responses), replay_digest);
  serve::write_responses_csv(merged.responses, dir + "/sharded_replay.csv");
  EXPECT_EQ(slurp(dir + "/sharded_live_responses.csv"),
            slurp(dir + "/sharded_replay.csv"));

  EXPECT_THROW(live.start(), std::invalid_argument)
      << "a drained cluster must not restart";
}

// --- CYP panel: lane-batched shard replays ----------------------------------

/// Factory campaigns of the CYP panel (benzphetamine + clozapine, CV).
quant::CalibrationStore& cyp_store() {
  static quant::CalibrationStore store = [] {
    quant::CampaignConfig campaign;
    campaign.seed = 515151;
    campaign.calibration_points = 3;
    campaign.blank_measurements = 3;
    return quant::CalibrationStore(campaign);
  }();
  return store;
}

serve::ServiceConfig cyp_service_config(std::uint64_t seed) {
  serve::ServiceConfig config;
  config.panel = {bio::TargetId::kBenzphetamine, bio::TargetId::kClozapine};
  config.engine_seed = seed;
  fault::DegradationParams aging;
  aging.fouling_rate_per_day = 0.05;
  aging.enzyme_decay_per_day = 0.03;
  aging.reference_drift_V_per_day = 1.0e-3;
  aging.seed = seed ^ 0xc1907ULL;
  config.degradation = fault::DegradationModel(aging);
  config.recalibration_interval_days = 3.0;
  return config;
}

/// 24 requests from 6 sessions over 5 days: enough CV reads per shard for
/// lockstep lanes, and QC checks past the first recalibration boundary.
std::vector<serve::Request> cyp_log(const serve::DiagnosticsService& service) {
  serve::TrafficSpec spec;
  spec.requests = 24;
  spec.sessions = 6;
  spec.tenants = 3;
  spec.seed = 29;
  spec.duration_h = 5.0 * 24.0;
  spec.qc_fraction = 0.3;
  return serve::synthesize_traffic(spec, service);
}

/// Digests of a run: the merged responses and the bytes of every frame a
/// complete subscriber received.
struct RunDigest {
  std::uint64_t responses = 0;
  std::uint64_t frames = 0;
  bool operator==(const RunDigest&) const = default;
};

std::uint64_t frame_digest(obs::TelemetrySubscriber& subscriber) {
  std::vector<std::uint8_t> bytes;
  obs::Frame frame;
  while (subscriber.pop(frame)) obs::encode_frame(frame, bytes);
  test::BitDigest d;
  for (const std::uint8_t b : bytes) d.add_u64(b);
  d.add_u64(bytes.size());
  return d.value();
}

std::shared_ptr<obs::TelemetrySubscriber> subscribe_all(obs::TelemetryBus& bus) {
  obs::SubscriberConfig config;
  config.name = "recorder";
  config.capacity = 1u << 15;
  return bus.subscribe(config);
}

/// The reference: execute()'s stages one request at a time in log order,
/// each capture committed to the bus as it completes -- opened with the
/// kShardRoute span the cluster replay streams when `router` is given.
RunDigest sequential_execute(std::uint64_t seed,
                             std::span<const serve::Request> log,
                             const serve::ShardCluster* router) {
  serve::DiagnosticsService service(cyp_store(), cyp_service_config(seed));
  obs::TelemetryBus bus;
  const auto recorder = subscribe_all(bus);
  const obs::TelemetryStream stream{&bus};
  std::vector<serve::Response> responses;
  for (const serve::Request& r : log) {
    obs::TelemetryCapture capture;
    if (router != nullptr) {
      capture.span(r.id, obs::SpanKind::kShardRoute, router->route(r.session),
                   0, 0, r.time_h);
    }
    serve::RequestPlan plan = service.plan(r);
    serve::RequestPlan* const plans[] = {&plan};
    service.measure(plans, 1);
    responses.push_back(service.finish(plan, capture));
    stream.commit(capture);
  }
  bus.close();
  return {digest_responses(responses), frame_digest(*recorder)};
}

TEST(CypPanelReplay, LaneBatchedShardReplaysMatchSequentialExecute) {
  for (const std::uint64_t seed : {3ULL, 2026ULL}) {
    serve::ShardClusterConfig cluster_config;
    cluster_config.router.shards = 2;
    const std::vector<serve::Request> log = [&] {
      const serve::DiagnosticsService reference(cyp_store(),
                                                cyp_service_config(seed));
      return cyp_log(reference);
    }();
    const std::size_t late_qc = static_cast<std::size_t>(std::count_if(
        log.begin(), log.end(), [](const serve::Request& r) {
          return r.kind == serve::RequestKind::kQcCheck && r.time_h >= 72.0;
        }));
    EXPECT_GT(late_qc, 0u) << "no QC check past the first epoch boundary";

    // K=2 replay through a reordering, duplicating transport.
    {
      serve::ShardCluster cluster(cyp_store(), cyp_service_config(seed),
                                  cluster_config);
      obs::TelemetryBus bus;
      const auto recorder = subscribe_all(bus);
      cluster.set_stream(&bus);
      test::SimNetConfig net;
      net.seed = seed ^ 0x5ca1eULL;
      net.max_delay_ticks = 32;
      net.duplicate_prob = 0.15;
      test::SimNetTransport transport(net);
      const serve::ShardedReplayResult result =
          cluster.replay(log, 2, &transport);
      bus.close();
      EXPECT_GT(result.per_shard_requests[0], 0u);
      EXPECT_GT(result.per_shard_requests[1], 0u);
      EXPECT_EQ((RunDigest{digest_responses(result.responses),
                           frame_digest(*recorder)}),
                sequential_execute(seed, log, &cluster))
          << "K=2 replay diverged from sequential execute() at seed " << seed;
    }

    // K=2 replay under loss, a shard crash and a partition.
    {
      serve::ShardCluster cluster(cyp_store(), cyp_service_config(seed),
                                  cluster_config);
      obs::TelemetryBus bus;
      const auto recorder = subscribe_all(bus);
      cluster.set_stream(&bus);
      test::SimNetConfig net;
      net.seed = seed ^ 0xfa017ULL;
      net.max_delay_ticks = 24;
      net.duplicate_prob = 0.10;
      net.drop_prob = 0.05;
      net.crashes = {{.shard = cluster.route(log[0].session),
                      .from_tick = 10,
                      .until_tick = 300}};
      net.partitions = {{.shard = 1 - cluster.route(log[0].session),
                         .from_tick = 350,
                         .until_tick = 520}};
      test::SimNetTransport transport(net);
      const serve::ShardedReplayResult result =
          cluster.replay(log, 0, &transport);
      bus.close();
      EXPECT_GT(result.faults.messages_dropped + result.faults.shard_failovers,
                0u);
      EXPECT_EQ((RunDigest{digest_responses(result.responses),
                           frame_digest(*recorder)}),
                sequential_execute(seed, log, &cluster))
          << "hostile K=2 replay diverged from sequential execute() at seed "
          << seed;
    }
  }
}

}  // namespace
}  // namespace idp
