/// \file sim_network_test.cpp
/// Properties of the simulated-network transport itself: seeded
/// reproducibility, at-least-once no-loss delivery, genuine reorder within
/// the bounded-delay envelope, duplication, and the degenerate
/// configuration collapsing to FIFO. The perfect DirectClusterTransport is
/// pinned alongside as the reference behaviour.

#include "netsim/sim_network.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "serve/shard_transport.hpp"

namespace idp {
namespace {

serve::ResponseEnvelope envelope(std::uint64_t id, std::size_t shard = 0) {
  serve::ResponseEnvelope e;
  e.shard = shard;
  e.sequence = id;
  e.response.request_id = id;
  return e;
}

/// Drain a transport into the delivered request-id sequence, letting
/// virtual time run for `horizon` ticks past the last send so every
/// delayed message matures.
std::vector<std::uint64_t> drain(serve::ClusterTransport& transport,
                                 std::uint64_t horizon) {
  std::vector<std::uint64_t> ids;
  serve::ResponseEnvelope e;
  for (std::uint64_t tick = 0; tick <= horizon; ++tick) {
    while (transport.poll(e)) ids.push_back(e.response.request_id);
    transport.advance(1);
  }
  return ids;
}

TEST(DirectClusterTransport, IsFifoAndLossless) {
  serve::DirectClusterTransport transport;
  for (std::uint64_t i = 0; i < 100; ++i) transport.send(envelope(i));
  EXPECT_EQ(transport.sent(), 100u);
  const std::vector<std::uint64_t> ids = drain(transport, 0);
  ASSERT_EQ(ids.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(ids[i], i);
  EXPECT_EQ(transport.delivered(), 100u);
  serve::ResponseEnvelope e;
  EXPECT_FALSE(transport.poll(e));
}

TEST(SimNet, DeliverySequenceIsAPureFunctionOfTheSeed) {
  const auto run = [](std::uint64_t seed) {
    test::SimNetConfig config;
    config.seed = seed;
    config.max_delay_ticks = 16;
    config.duplicate_prob = 0.2;
    test::SimNetTransport transport(config);
    for (std::uint64_t i = 0; i < 200; ++i) transport.send(envelope(i));
    return drain(transport, config.max_delay_ticks);
  };
  EXPECT_EQ(run(7), run(7)) << "same seed must replay the same wire order";
  EXPECT_NE(run(7), run(8)) << "the fault schedule ignores its seed";
}

TEST(SimNet, DeliversEveryMessageAtLeastOnceAndCountsDuplicates) {
  test::SimNetConfig config;
  config.seed = 3;
  config.max_delay_ticks = 24;
  config.duplicate_prob = 0.25;
  test::SimNetTransport transport(config);
  constexpr std::uint64_t kMessages = 400;
  for (std::uint64_t i = 0; i < kMessages; ++i) transport.send(envelope(i));

  const std::vector<std::uint64_t> ids =
      drain(transport, config.max_delay_ticks);
  const std::set<std::uint64_t> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), kMessages) << "no message may be lost";
  EXPECT_EQ(ids.size(), kMessages + transport.duplicated());
  EXPECT_GT(transport.duplicated(), 0u)
      << "a 25% duplication rate over 400 sends produced no duplicate";
  EXPECT_EQ(transport.delivered(), ids.size());
}

TEST(SimNet, ReordersWithinTheBoundedDelayEnvelope) {
  test::SimNetConfig config;
  config.seed = 11;
  config.max_delay_ticks = 8;
  config.duplicate_prob = 0.0;
  test::SimNetTransport transport(config);
  constexpr std::uint64_t kMessages = 300;
  for (std::uint64_t i = 0; i < kMessages; ++i) transport.send(envelope(i));

  const std::vector<std::uint64_t> ids =
      drain(transport, config.max_delay_ticks);
  ASSERT_EQ(ids.size(), kMessages);
  std::size_t inversions = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    // Messages sent after ids[i] but delivered before it must have been
    // sent within its delay window: at most max_delay_ticks of them.
    std::size_t overtakers = 0;
    for (std::size_t j = 0; j < i; ++j) {
      if (ids[j] > ids[i]) ++overtakers;
    }
    if (overtakers > 0) ++inversions;
    EXPECT_LE(overtakers, config.max_delay_ticks)
        << "message " << ids[i] << " was overtaken beyond the delay bound";
  }
  EXPECT_GT(inversions, 0u)
      << "an 8-tick delay window over 300 sends produced no reorder";
}

TEST(SimNet, ZeroDelayZeroDuplicationCollapsesToFifo) {
  test::SimNetConfig config;
  config.seed = 5;
  config.max_delay_ticks = 0;
  config.duplicate_prob = 0.0;
  test::SimNetTransport transport(config);
  for (std::uint64_t i = 0; i < 50; ++i) transport.send(envelope(i));
  const std::vector<std::uint64_t> ids =
      drain(transport, config.max_delay_ticks);
  ASSERT_EQ(ids.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(ids[i], i);
}

TEST(SimNet, DropAccountingIsExactAndSeedPure) {
  const auto run = [](std::uint64_t seed) {
    test::SimNetConfig config;
    config.seed = seed;
    config.max_delay_ticks = 16;
    config.duplicate_prob = 0.10;
    config.drop_prob = 0.20;
    test::SimNetTransport transport(config);
    constexpr std::uint64_t kMessages = 400;
    for (std::uint64_t i = 0; i < kMessages; ++i) transport.send(envelope(i));
    const std::vector<std::uint64_t> ids =
        drain(transport, config.max_delay_ticks);
    // Every send is accounted for exactly once: delivered as the
    // original, delivered again as a duplicate, or counted dropped.
    EXPECT_EQ(ids.size(),
              kMessages - transport.dropped() + transport.duplicated());
    EXPECT_GT(transport.dropped(), 0u)
        << "a 20% drop rate over 400 sends lost nothing";
    EXPECT_LT(transport.dropped(), kMessages);
    return std::pair(ids, transport.dropped());
  };
  EXPECT_EQ(run(21), run(21)) << "the loss pattern must be seed-pure";
  EXPECT_NE(run(21).first, run(22).first);
}

TEST(SimNet, CrashWindowsGateShardUpByVirtualTime) {
  test::SimNetConfig config;
  config.crashes = {{.shard = 1, .from_tick = 10, .until_tick = 20}};
  test::SimNetTransport transport(config);
  EXPECT_TRUE(transport.shard_up(0));
  EXPECT_TRUE(transport.shard_up(1)) << "window must not start early";
  transport.advance(10);
  EXPECT_TRUE(transport.shard_up(0)) << "a crash is per-shard";
  EXPECT_FALSE(transport.shard_up(1));
  transport.advance(9);  // tick 19: last down tick of [10, 20)
  EXPECT_FALSE(transport.shard_up(1));
  transport.advance(1);  // tick 20: restarted
  EXPECT_TRUE(transport.shard_up(1));
}

TEST(SimNet, PartitionCutsBothDirectionsOfOneLink) {
  test::SimNetConfig config;
  config.max_delay_ticks = 0;
  config.duplicate_prob = 0.0;
  config.partitions = {{.shard = 0, .from_tick = 0, .until_tick = 1000}};
  test::SimNetTransport transport(config);

  // All three message classes on the partitioned link are lost...
  transport.send(envelope(1, /*shard=*/0));
  transport.send_work(serve::WorkEnvelope{.shard = 0, .work_id = 1});
  transport.send_heartbeat(serve::HeartbeatEnvelope{.shard = 0});
  EXPECT_EQ(transport.dropped(), 3u);

  // ...while the un-partitioned shard's traffic flows.
  transport.send(envelope(2, /*shard=*/1));
  transport.send_work(serve::WorkEnvelope{.shard = 1, .work_id = 2});
  transport.send_heartbeat(serve::HeartbeatEnvelope{.shard = 1});
  EXPECT_EQ(transport.dropped(), 3u);

  serve::ResponseEnvelope response;
  ASSERT_TRUE(transport.poll(response));
  EXPECT_EQ(response.shard, 1u);
  EXPECT_FALSE(transport.poll(response));
  serve::WorkEnvelope work;
  ASSERT_TRUE(transport.poll_work(work));
  EXPECT_EQ(work.work_id, 2u);
  EXPECT_FALSE(transport.poll_work(work));
  serve::HeartbeatEnvelope heartbeat;
  ASSERT_TRUE(transport.poll_heartbeat(heartbeat));
  EXPECT_EQ(heartbeat.shard, 1u);
  EXPECT_FALSE(transport.poll_heartbeat(heartbeat));
}

TEST(SimNet, TimeGatedPollsOnlyDeliverMaturedMessages) {
  test::SimNetConfig config;
  config.seed = 9;
  config.max_delay_ticks = 64;
  config.duplicate_prob = 0.0;
  test::SimNetTransport transport(config);
  constexpr std::uint64_t kMessages = 32;
  for (std::uint64_t i = 0; i < kMessages; ++i) {
    transport.send_work(serve::WorkEnvelope{.shard = 0, .work_id = i});
  }

  // Drain with the virtual clock: nothing may arrive before its delivery
  // tick, and letting time run must eventually deliver everything.
  std::size_t delivered = 0;
  serve::WorkEnvelope work;
  bool saw_immature_gap = false;
  for (std::uint64_t tick = 0; tick < kMessages + 65 && delivered < kMessages;
       ++tick) {
    bool any = false;
    while (transport.poll_work(work)) {
      ++delivered;
      any = true;
    }
    if (!any && delivered < kMessages) saw_immature_gap = true;
    transport.advance(1);
  }
  EXPECT_EQ(delivered, kMessages);
  EXPECT_TRUE(saw_immature_gap)
      << "a 64-tick delay envelope never made poll_work wait";
}

}  // namespace
}  // namespace idp
