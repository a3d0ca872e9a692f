/// \file fault_tolerance_test.cpp
/// The fault-tolerance acceptance drill: one recorded mixed traffic log
/// replayed through a K-shard cluster over a *hostile* simulated network
/// -- per-message drops, a shard crash/restart window, a bidirectional
/// partition, plus reorder/delay/duplication -- must merge into
/// a global log *bitwise identical* to fault-free single-node execution,
/// across K in {1, 2, 4}, five seeds and parallelism {1, 2, hardware}.
/// The retry/failover machinery must demonstrably have worked (drops,
/// retries, failovers, rejoins all observed, loudly accounted), the whole
/// fault history must be a pure function of the seed, and the lease
/// census must prove run-id disjointness survived failover rerouting.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/determinism.hpp"
#include "netsim/sim_network.hpp"
#include "obs/trace.hpp"
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
/// boundaries) from 6 sessions across 3 tenants.
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

/// The hostile schedule every sweep point runs under: 5% loss, 10%
/// duplication, 24-tick delay envelope, `crash_shard` crashed for ticks
/// [10, 300) (the initial dispatch wave dies with it), and
/// `partition_shard` partitioned for [350, 520) (long enough to outlast
/// the failure detector's timeout, so heartbeat silence -- not the crash
/// schedule -- drives a second failover). Callers pick crash_shard as a
/// shard that owns traffic, so the outage provably blocks progress until
/// failover or restart.
test::SimNetConfig hostile_net(std::uint64_t seed, std::size_t crash_shard,
                               std::size_t partition_shard) {
  test::SimNetConfig net;
  net.seed = seed;
  net.max_delay_ticks = 24;
  net.duplicate_prob = 0.10;
  net.drop_prob = 0.05;
  net.crashes = {{.shard = crash_shard, .from_tick = 10, .until_tick = 300}};
  net.partitions = {
      {.shard = partition_shard, .from_tick = 350, .until_tick = 520}};
  return net;
}

class FaultTolerantReplay : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FaultTolerantReplay, MergedLogSurvivesLossCrashAndPartitionBitwise) {
  const std::size_t shards = GetParam();
  const std::vector<serve::Request>& log = traffic_log();

  serve::FaultStats totals;
  std::uint64_t duplicates_seen = 0;
  for (const std::uint64_t seed : kSeeds) {
    const std::uint64_t baseline = single_node_digest(seed);
    for (const std::size_t parallelism : kLevels) {
      serve::ShardClusterConfig cluster_config;
      cluster_config.router.shards = shards;
      serve::ShardCluster cluster(shared_store(), service_config(seed),
                                  cluster_config);

      // The fault schedule varies with every sweep point; the merged log
      // must not. Crash the shard owning the log's first request (it has
      // work, so the outage provably bites) and partition its neighbour.
      const std::size_t crash_shard = cluster.route(log[0].session);
      test::SimNetTransport transport(
          hostile_net(seed * 1000 + shards * 10 + parallelism, crash_shard,
                      (crash_shard + 1) % shards));
      const serve::ShardedReplayResult result =
          cluster.replay(log, parallelism, &transport);

      EXPECT_EQ(digest_responses(result.responses), baseline)
          << "K=" << shards << " seed=" << seed
          << " parallelism=" << parallelism
          << " diverged from fault-free single-node execution";

      // Conservation: primaries cover the log, every response has an
      // executor, and the executor really served it.
      EXPECT_EQ(std::accumulate(result.per_shard_requests.begin(),
                                result.per_shard_requests.end(),
                                std::size_t{0}),
                log.size());
      ASSERT_EQ(result.executed_by.size(), log.size());
      for (const std::size_t executor : result.executed_by) {
        EXPECT_LT(executor, shards);
      }

      // Run-id disjointness must survive failover rerouting: the census
      // over the *actual* executors still assigns every lease block to
      // exactly one shard, and its failover column matches executed_by.
      const serve::LeaseCensus census =
          cluster.lease_census(log, result.executed_by);
      EXPECT_TRUE(census.disjoint);
      std::uint64_t rerouted = 0;
      for (std::size_t i = 0; i < log.size(); ++i) {
        if (result.executed_by[i] != cluster.route(log[i].session)) {
          ++rerouted;
        }
      }
      std::uint64_t census_requests = 0, census_failovers = 0;
      for (const serve::ShardLeaseDomain& domain : census.per_shard) {
        census_requests += domain.requests;
        census_failovers += domain.failover_requests;
      }
      EXPECT_EQ(census_requests, log.size());
      EXPECT_EQ(census_failovers, rerouted);

      totals.retries += result.faults.retries;
      totals.reroutes += result.faults.reroutes;
      totals.messages_dropped += result.faults.messages_dropped;
      totals.shard_failovers += result.faults.shard_failovers;
      totals.shard_rejoins += result.faults.shard_rejoins;
      totals.heartbeats += result.faults.heartbeats;
      duplicates_seen += result.merge.duplicates_seen;
    }
  }

  // The harness must actually have been hostile, and every recovery
  // mechanism must actually have fired across the 15 fault schedules.
  EXPECT_GT(totals.messages_dropped, 0u);
  EXPECT_GT(totals.retries, 0u) << "nothing was ever retransmitted";
  EXPECT_GT(totals.shard_failovers, 0u)
      << "the crash window never tripped the failure detector";
  EXPECT_GT(totals.shard_rejoins, 0u)
      << "the restarted shard never rejoined";
  EXPECT_GT(totals.heartbeats, 0u);
  EXPECT_GT(duplicates_seen, 0u);
  if (shards > 1) {
    EXPECT_GT(totals.reroutes, 0u)
        << "with peers available, the crash window must cause failover "
           "rerouting";
  } else {
    EXPECT_EQ(totals.reroutes, 0u)
        << "a single-shard cluster has nowhere to reroute";
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, FaultTolerantReplay,
                         ::testing::ValuesIn(kShardCounts),
                         [](const auto& param_info) {
                           return "K" + std::to_string(param_info.param);
                         });

TEST(FaultTolerantReplay, FaultHistoryIsAPureFunctionOfTheSeed) {
  // Same seed -> bit-identical fault history, not just identical output:
  // every counter in FaultStats and MergeStats must replay exactly.
  const auto run = [](std::uint64_t seed) {
    serve::ShardClusterConfig config;
    config.router.shards = 2;
    serve::ShardCluster cluster(shared_store(), service_config(4), config);
    const std::size_t crash_shard =
        cluster.route(traffic_log()[0].session);
    test::SimNetTransport transport(
        hostile_net(seed, crash_shard, (crash_shard + 1) % 2));
    return cluster.replay(traffic_log(), 1, &transport);
  };
  const serve::ShardedReplayResult a = run(77);
  const serve::ShardedReplayResult b = run(77);
  EXPECT_EQ(digest_responses(a.responses), digest_responses(b.responses));
  EXPECT_EQ(a.executed_by, b.executed_by);
  EXPECT_EQ(a.faults.dispatches, b.faults.dispatches);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
  EXPECT_EQ(a.faults.reroutes, b.faults.reroutes);
  EXPECT_EQ(a.faults.executions, b.faults.executions);
  EXPECT_EQ(a.faults.heartbeats, b.faults.heartbeats);
  EXPECT_EQ(a.faults.messages_dropped, b.faults.messages_dropped);
  EXPECT_EQ(a.faults.shard_failovers, b.faults.shard_failovers);
  EXPECT_EQ(a.faults.shard_rejoins, b.faults.shard_rejoins);
  EXPECT_EQ(a.faults.final_tick, b.faults.final_tick);
  EXPECT_EQ(a.merge.delivered, b.merge.delivered);
  EXPECT_EQ(a.merge.duplicates_seen, b.merge.duplicates_seen);
  EXPECT_EQ(a.merge.max_reorder_distance, b.merge.max_reorder_distance);

  // And a different seed must produce a different history (the injection
  // is not vacuous).
  const serve::ShardedReplayResult c = run(78);
  EXPECT_EQ(digest_responses(a.responses), digest_responses(c.responses))
      << "output must be seed-independent even though the history is not";
  EXPECT_NE(a.faults.final_tick + a.faults.dispatches +
                a.faults.messages_dropped,
            c.faults.final_tick + c.faults.dispatches +
                c.faults.messages_dropped);
}

TEST(FaultTolerantReplay, TraceAccountsForEveryRecoveryAction) {
  // One kShardRoute and one kMerge span per request, and one span per
  // retry, reroute, failover and rejoin the fault counters report.
  serve::ShardClusterConfig config;
  config.router.shards = 2;
  serve::ShardCluster cluster(shared_store(), service_config(8), config);
  obs::TraceRecorder trace;
  cluster.set_trace(&trace);
  const std::size_t crash_shard = cluster.route(traffic_log()[0].session);
  test::SimNetTransport transport(
      hostile_net(81, crash_shard, (crash_shard + 1) % 2));
  const serve::ShardedReplayResult result =
      cluster.replay(traffic_log(), 1, &transport);

  std::array<std::uint64_t, obs::kSpanKindCount> spans{};
  for (const obs::TraceEvent& event : trace.sorted()) {
    ++spans[static_cast<std::size_t>(event.kind)];
  }
  const auto count = [&](obs::SpanKind kind) {
    return spans[static_cast<std::size_t>(kind)];
  };
  EXPECT_EQ(count(obs::SpanKind::kShardRoute), traffic_log().size());
  EXPECT_EQ(count(obs::SpanKind::kMerge), traffic_log().size());
  EXPECT_EQ(count(obs::SpanKind::kRetry), result.faults.retries);
  EXPECT_EQ(count(obs::SpanKind::kReroute), result.faults.reroutes);
  EXPECT_EQ(count(obs::SpanKind::kFailover), result.faults.shard_failovers);
  EXPECT_EQ(count(obs::SpanKind::kRejoin), result.faults.shard_rejoins);
  EXPECT_GT(result.faults.shard_failovers, 0u);
  EXPECT_GT(result.faults.shard_rejoins, 0u);
}

TEST(FaultTolerantReplay, PerfectTransportDegeneratesToThePlainReplay) {
  // The default (nullptr) transport is the perfect DirectClusterTransport:
  // the replay must equal single-node execution with no recovery work at
  // all -- one dispatch and one execution per request, nothing retried,
  // rerouted, lost, duplicated or reordered.
  serve::ShardClusterConfig config;
  config.router.shards = 2;
  serve::ShardCluster cluster(shared_store(), service_config(5), config);
  const serve::ShardedReplayResult result = cluster.replay(traffic_log(), 1);
  EXPECT_EQ(digest_responses(result.responses), single_node_digest(5));
  EXPECT_EQ(result.faults.retries, 0u);
  EXPECT_EQ(result.faults.reroutes, 0u);
  EXPECT_EQ(result.faults.messages_dropped, 0u);
  EXPECT_EQ(result.faults.work_discarded, 0u);
  EXPECT_EQ(result.faults.shard_failovers, 0u);
  EXPECT_EQ(result.faults.dispatches, traffic_log().size());
  EXPECT_EQ(result.faults.executions, traffic_log().size());
  EXPECT_EQ(result.merge.delivered, traffic_log().size());
  EXPECT_EQ(result.merge.duplicates_seen, 0u);
  EXPECT_EQ(result.merge.max_reorder_distance, 0u);
  for (std::size_t i = 0; i < traffic_log().size(); ++i) {
    EXPECT_EQ(result.executed_by[i],
              cluster.route(traffic_log()[i].session));
  }
}

TEST(FaultTolerantReplay, StarvationHitsTheVirtualTimeCeilingLoudly) {
  serve::ShardClusterConfig config;
  config.router.shards = 2;
  serve::ShardCluster cluster(shared_store(), service_config(6), config);
  // Both shards crashed for (effectively) ever: no response can merge,
  // and the replay must throw at the tick ceiling instead of spinning.
  test::SimNetConfig net;
  net.crashes = {{.shard = 0, .from_tick = 0, .until_tick = 1'000'000'000},
                 {.shard = 1, .from_tick = 0, .until_tick = 1'000'000'000}};
  test::SimNetTransport transport(net);
  serve::FaultToleranceConfig fault_config;
  fault_config.max_ticks = 2'000;
  fault_config.retry.max_attempts = 1'000'000;  // budget must not fire first
  EXPECT_THROW(cluster.replay(traffic_log(), 1, &transport,
                                             fault_config),
               util::Error);
}

TEST(FaultTolerantReplay, ExhaustedRetryBudgetFailsLoudly) {
  serve::ShardClusterConfig config;
  config.router.shards = 2;
  serve::ShardCluster cluster(shared_store(), service_config(7), config);
  test::SimNetConfig net;
  net.drop_prob = 1.0;  // the network eats everything
  test::SimNetTransport transport(net);
  serve::FaultToleranceConfig fault_config;
  fault_config.retry.max_attempts = 3;
  fault_config.retry.response_timeout_ticks = 8;
  fault_config.retry.max_backoff_ticks = 16;
  EXPECT_THROW(cluster.replay(traffic_log(), 1, &transport,
                                             fault_config),
               util::Error);
}

}  // namespace
}  // namespace idp
