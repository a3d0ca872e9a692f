/// \file sim_network.hpp
/// The simulated-network harness: a seeded virtual transport between the
/// service shards and the coordinator that injects the distribution faults
/// the merge contract must survive -- message reorder, bounded delay,
/// duplication, loss, shard crash/restart windows and bidirectional
/// partitions -- deterministically per seed (FoundationDB-style
/// deterministic-simulation testing, scaled to this repo's shard layer).
///
/// Fault model -- every message class (responses, work dispatches,
/// heartbeats) passes the same pipeline at send time:
/// - every send() advances the virtual clock by one tick;
/// - a message to/from a *partitioned* shard is lost outright. Partition
///   windows are part of the schedule, not of the random stream -- no rng
///   draw is consumed -- so the same seed with and without partitions
///   drops/delays all surviving traffic identically;
/// - with probability `drop_prob` the message is lost (seeded draw);
/// - with probability `duplicate_prob` an identical duplicate is also
///   scheduled at an independently drawn delivery tick (at-least-once,
///   never exactly-once);
/// - the survivor is scheduled at `now + U[0, max_delay_ticks]`, so
///   messages overtake each other whenever a later send draws a smaller
///   delay: *reorder through bounded delay*, never unbounded.
///
/// Crash windows are shard-side faults, not link faults: shard_up()
/// reports them, and the cluster's shard simulation discards work that
/// arrives at (and withholds heartbeats from) a crashed shard. The
/// coordinator never sees this schedule -- it learns liveness through
/// heartbeat silence alone.
///
/// Delivery order is (delivery tick, schedule nonce) -- a pure function of
/// (seed, send sequence) -- and every loss is schedule- or seed-driven, so
/// the entire fault history is a pure function of (config, send sequence):
/// a replay through this transport is exactly as reproducible as the
/// perfect DirectClusterTransport while exercising a thoroughly hostile
/// network.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "serve/shard_transport.hpp"
#include "util/random.hpp"

namespace idp::test {

/// One shard crash/restart window: the shard is down -- discarding
/// arriving work, emitting no heartbeats -- for ticks in [from, until).
struct ShardOutageWindow {
  std::size_t shard = 0;
  std::uint64_t from_tick = 0;
  std::uint64_t until_tick = 0;
};

/// One bidirectional partition window: the coordinator <-> shard link is
/// cut -- both directions lose every message -- for ticks in [from, until).
struct PartitionWindow {
  std::size_t shard = 0;
  std::uint64_t from_tick = 0;
  std::uint64_t until_tick = 0;
};

/// Fault intensity of the simulated network.
struct SimNetConfig {
  std::uint64_t seed = 1;
  /// Per-message delivery delay is uniform in [0, max_delay_ticks] virtual
  /// ticks (one tick per send). 0 = in-order.
  std::uint64_t max_delay_ticks = 32;
  /// Probability a message is delivered twice.
  double duplicate_prob = 0.10;
  /// Probability a message is lost (any class; the replay's retry and
  /// failover loop recovers it).
  double drop_prob = 0.0;
  /// Shard crash/restart schedule.
  std::vector<ShardOutageWindow> crashes;
  /// Link partition schedule.
  std::vector<PartitionWindow> partitions;
};

/// Seeded reorder/delay/duplication/loss/crash/partition transport for
/// tests, implementing the full ClusterTransport vocabulary.
class SimNetTransport final : public serve::ClusterTransport {
 public:
  explicit SimNetTransport(SimNetConfig config = {})
      : config_(std::move(config)), rng_(config_.seed ^ kSeedDomain) {}

  // --- responses (shard -> coordinator) ------------------------------------

  void send(serve::ResponseEnvelope envelope) override {
    ++sent_;
    transmit(pending_, envelope.shard, std::move(envelope));
  }

  /// Time-gated drain: only messages whose delivery tick has been reached.
  bool poll(serve::ResponseEnvelope& out) override {
    if (!matured(pending_)) return false;
    out = std::move(pending_.begin()->second);
    pending_.erase(pending_.begin());
    ++delivered_;
    return true;
  }

  std::uint64_t sent() const override { return sent_; }
  std::uint64_t delivered() const override { return delivered_; }

  // --- virtual clock --------------------------------------------------------

  std::uint64_t now() const override { return now_; }
  void advance(std::uint64_t ticks) override { now_ += ticks; }

  // --- work dispatches (coordinator -> shard) -------------------------------

  void send_work(serve::WorkEnvelope work) override {
    transmit(work_pending_, work.shard, work);
  }

  bool poll_work(serve::WorkEnvelope& out) override {
    if (!matured(work_pending_)) return false;
    out = work_pending_.begin()->second;
    work_pending_.erase(work_pending_.begin());
    return true;
  }

  // --- heartbeats (shard -> coordinator) ------------------------------------

  void send_heartbeat(serve::HeartbeatEnvelope heartbeat) override {
    transmit(heartbeat_pending_, heartbeat.shard, heartbeat);
  }

  bool poll_heartbeat(serve::HeartbeatEnvelope& out) override {
    if (!matured(heartbeat_pending_)) return false;
    out = heartbeat_pending_.begin()->second;
    heartbeat_pending_.erase(heartbeat_pending_.begin());
    return true;
  }

  // --- fault schedule -------------------------------------------------------

  bool shard_up(std::size_t shard) const override {
    for (const ShardOutageWindow& w : config_.crashes) {
      if (w.shard == shard && in_window(now_, w.from_tick, w.until_tick)) {
        return false;
      }
    }
    return true;
  }

  std::uint64_t dropped() const override { return dropped_; }

  /// Messages that were scheduled twice.
  std::uint64_t duplicated() const { return duplicated_; }

 private:
  /// Seed-domain tag: a SimNet sharing a seed with any other harness
  /// component still draws an independent stream.
  static constexpr std::uint64_t kSeedDomain = 0x082efa98ec4e6c89ULL;

  using Key = std::pair<std::uint64_t, std::uint64_t>;

  static bool in_window(std::uint64_t tick, std::uint64_t from,
                        std::uint64_t until) {
    return tick >= from && tick < until;
  }

  bool partitioned(std::size_t shard, std::uint64_t tick) const {
    for (const PartitionWindow& w : config_.partitions) {
      if (w.shard == shard && in_window(tick, w.from_tick, w.until_tick)) {
        return true;
      }
    }
    return false;
  }

  template <typename Message>
  bool matured(const std::map<Key, Message>& queue) const {
    return !queue.empty() && queue.begin()->first.first <= now_;
  }

  /// The shared send pipeline: clock tick, partition loss (schedule-based,
  /// no draw), seeded drop, seeded duplication, seeded delay.
  template <typename Message>
  void transmit(std::map<Key, Message>& queue, std::size_t shard,
                Message message) {
    ++now_;
    if (partitioned(shard, now_)) {
      ++dropped_;
      return;
    }
    if (config_.drop_prob > 0.0 &&
        rng_.uniform(0.0, 1.0) < config_.drop_prob) {
      ++dropped_;
      return;
    }
    if (config_.duplicate_prob > 0.0 &&
        rng_.uniform(0.0, 1.0) < config_.duplicate_prob) {
      ++duplicated_;
      schedule(queue, message);  // the duplicate draws its own delivery tick
    }
    schedule(queue, std::move(message));
  }

  template <typename Message>
  void schedule(std::map<Key, Message>& queue, Message message) {
    const std::uint64_t at = now_ + rng_.index(config_.max_delay_ticks + 1);
    queue.emplace(Key(at, nonce_++), std::move(message));
  }

  SimNetConfig config_;
  util::Rng rng_;
  std::uint64_t now_ = 0;
  std::uint64_t nonce_ = 0;
  /// (delivery tick, schedule nonce) -> message; map order IS wire order.
  std::map<Key, serve::ResponseEnvelope> pending_;
  std::map<Key, serve::WorkEnvelope> work_pending_;
  std::map<Key, serve::HeartbeatEnvelope> heartbeat_pending_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace idp::test
