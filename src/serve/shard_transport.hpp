/// \file shard_transport.hpp
/// The shard <-> coordinator message boundary: the message envelopes, the
/// one transport interface the coordinator drives, and its perfect
/// (lossless, in-order, zero-delay) implementation.
///
/// The transport is where distribution faults live. A shard stamps every
/// response with its origin shard and a per-shard send sequence; the
/// coordinator's merger must reconstruct one deterministic global log from
/// whatever arrival order the transport produces. One fault model, one
/// interface: ClusterTransport carries three message classes (work
/// dispatches, responses, heartbeats) on one virtual clock, and any
/// message MAY be reordered, delayed, duplicated or LOST -- per-message
/// drops, shard crash/restart windows, bidirectional partitions. The
/// coordinator compensates with retry (serve/retry.hpp), failover
/// (serve/failure_detector.hpp) and request-id dedup instead of throwing.
/// The simulated network under tests/netsim/ injects all of those faults
/// from a seed; DirectClusterTransport injects none.
#pragma once

#include <cstdint>
#include <deque>

#include "serve/request.hpp"

namespace idp::serve {

/// One shard -> coordinator message.
struct ResponseEnvelope {
  std::size_t shard = 0;      ///< origin shard
  std::uint64_t sequence = 0; ///< per-shard send order (0, 1, ...)
  Response response;
};

/// Coordinator -> shard work dispatch (initial assignment or retransmit).
struct WorkEnvelope {
  std::size_t shard = 0;     ///< destination shard
  std::uint64_t work_id = 0; ///< coordinator-side request slot (log index)
};

/// Shard -> coordinator liveness beacon.
struct HeartbeatEnvelope {
  std::size_t shard = 0;
  std::uint64_t sent_tick = 0;
};

/// Virtual-clock transport between the coordinator and its shards. Carries
/// work dispatches (coordinator -> shard), responses (shard ->
/// coordinator) and heartbeats (shard -> coordinator); any message may be
/// lost. Single-threaded use: the replay loop sends and drains from one
/// thread (live mode bypasses the transport and fans into a locked sink).
///
/// Clock discipline: every send of any message class advances the virtual
/// clock by one tick; advance() passes idle ticks. Delayed messages mature
/// -- become pollable -- only once the clock reaches their delivery tick,
/// which is what makes retry deadlines meaningful.
class ClusterTransport {
 public:
  virtual ~ClusterTransport() = default;

  /// Shard -> coordinator: accept one response for (possible) delivery.
  virtual void send(ResponseEnvelope envelope) = 0;

  /// Next matured response arrival; false when none has matured yet.
  virtual bool poll(ResponseEnvelope& out) = 0;

  /// Responses accepted by send().
  virtual std::uint64_t sent() const = 0;

  /// Responses handed out by poll() (duplicates included).
  virtual std::uint64_t delivered() const = 0;

  /// Current virtual tick.
  virtual std::uint64_t now() const = 0;

  /// Let `ticks` of idle virtual time pass (delayed messages mature).
  virtual void advance(std::uint64_t ticks) = 0;

  /// Coordinator -> shard: dispatch (or retransmit) one request slot.
  virtual void send_work(WorkEnvelope work) = 0;

  /// Next matured work arrival; false when none has matured yet.
  virtual bool poll_work(WorkEnvelope& out) = 0;

  /// Shard -> coordinator liveness beacon.
  virtual void send_heartbeat(HeartbeatEnvelope heartbeat) = 0;

  /// Next matured heartbeat arrival.
  virtual bool poll_heartbeat(HeartbeatEnvelope& out) = 0;

  /// Whether `shard` is executing at the current tick (its crash/restart
  /// schedule). This is *shard-side* knowledge: the cluster's shard
  /// simulation consults it to decide whether work executes and
  /// heartbeats are emitted. The coordinator's failover decisions must
  /// rely on the FailureDetector (i.e. on heartbeat arrivals) alone.
  virtual bool shard_up(std::size_t shard) const = 0;

  /// Messages lost so far across all classes (drop + partition injection).
  virtual std::uint64_t dropped() const = 0;
};

/// The ideal cluster transport: FIFO, lossless, zero-delay, no crashes,
/// no partitions. Replay over this transport is the reference the hostile
/// simulated network is compared against, and the default when no
/// transport is supplied.
class DirectClusterTransport final : public ClusterTransport {
 public:
  void send(ResponseEnvelope envelope) override;
  bool poll(ResponseEnvelope& out) override;
  std::uint64_t sent() const override { return sent_; }
  std::uint64_t delivered() const override { return delivered_; }

  std::uint64_t now() const override { return now_; }
  void advance(std::uint64_t ticks) override { now_ += ticks; }
  void send_work(WorkEnvelope work) override;
  bool poll_work(WorkEnvelope& out) override;
  void send_heartbeat(HeartbeatEnvelope heartbeat) override;
  bool poll_heartbeat(HeartbeatEnvelope& out) override;
  bool shard_up(std::size_t) const override { return true; }
  std::uint64_t dropped() const override { return 0; }

 private:
  std::deque<ResponseEnvelope> pending_;
  std::deque<WorkEnvelope> work_pending_;
  std::deque<HeartbeatEnvelope> heartbeat_pending_;
  std::uint64_t now_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace idp::serve
