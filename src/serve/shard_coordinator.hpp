/// \file shard_coordinator.hpp
/// Multi-shard scale-out of the service runtime: a ShardCluster owns K
/// per-shard DiagnosticsService instances behind one consistent-hash
/// router, and a coordinator-side ResultMerger folds the per-shard result
/// streams into one deterministic global log.
///
/// Determinism contract (the distributed extension of the PR 5 guarantee):
/// every shard runs an *identically configured* service over one shared
/// CalibrationStore, and a response is a pure function of (request,
/// service configuration) -- request id leases the same run-id block on
/// any shard, the session hash seeds the same degradation site and
/// recalibration campaign blocks, and the router assigns each session to
/// exactly one shard. The per-shard run-id sub-domains are therefore
/// carved from the existing lease scheme *by routing*: shard s owns the
/// serve-domain (2^42) blocks of exactly its routed request ids and the
/// recalibration-domain (2^43) blocks of exactly its routed sessions,
/// disjoint across shards (lease_census() audits this for a log). The
/// merged K-shard replay is consequently bitwise identical to single-node
/// Scheduler::replay for the same traffic log -- at any K, any
/// parallelism, and under any transport fault schedule, which
/// tests/netsim/ proves.
///
/// Fault tolerance: replay() survives message reorder, delay and
/// duplication, and *loss* as well -- per-message drops, shard
/// crash/restart windows and bidirectional partitions -- by combining a
/// virtual-clock retry policy (serve/retry.hpp), heartbeat failure
/// detection with failover rerouting (serve/failure_detector.hpp) and the
/// merger's request-id dedup. The purity argument makes every recovery
/// action safe: a retransmitted or failed-over execution of request r is
/// bitwise identical to the original, because r's run-id lease belongs to
/// r, not to any shard. The merged hostile replay is therefore STILL
/// bitwise identical to fault-free single-node execution, and the lease
/// census proves run-id ownership stayed disjoint even after rerouting.
///
/// Merge contract: the global log is the request-id-sorted set of unique
/// responses -- the same canonical order CsvResultSink writes -- with
/// duplicates counted (never silently swallowed) and dropped by first
/// arrival, and loss detected loudly (ResultMerger::finish throws when
/// responses are missing).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/failure_detector.hpp"
#include "serve/request_queue.hpp"
#include "serve/result_sink.hpp"
#include "serve/retry.hpp"
#include "serve/scheduler.hpp"
#include "serve/service.hpp"
#include "serve/shard_router.hpp"
#include "serve/shard_transport.hpp"

namespace idp::serve {

/// Observability of one merge pass.
struct MergeStats {
  std::uint64_t delivered = 0;       ///< envelopes accepted by the merger
  /// Redeliveries of an already-merged request id (transport duplicates
  /// and retransmits). Counted explicitly: first arrival wins on content,
  /// but the *event* is never swallowed silently.
  std::uint64_t duplicates_seen = 0;
  /// Largest per-shard sequence inversion observed across *fresh*
  /// arrivals: how far behind its shard's newest-seen sequence a
  /// first-delivery arrived. Duplicates are skipped -- a late redelivery
  /// of an old sequence says nothing about wire reordering of new
  /// traffic. 0 on an in-order transport.
  std::uint64_t max_reorder_distance = 0;

  /// Publish under the canonical serve.merge.* names. `merged` is the
  /// unique-response count (delivered == merged + duplicates, which
  /// obs::serve_conservation_rules() pins).
  void publish(obs::MetricsRegistry& registry, std::uint64_t merged) const;
};

/// Coordinator-side sorted merge of per-shard response streams, keyed on
/// request id. Accepts envelopes in any order, drops duplicate request ids
/// (first arrival wins -- arrivals of one id are bitwise identical, so
/// "first" is immaterial to content), and finishes into the canonical
/// request-id-ordered log.
class ResultMerger {
 public:
  /// Fold one delivered envelope in. Returns true when the envelope was
  /// fresh (first delivery of its request id), false for a duplicate.
  bool accept(const ResponseEnvelope& envelope);

  /// Responses merged so far (unique request ids).
  std::size_t merged() const { return by_id_.size(); }

  const MergeStats& stats() const { return stats_; }

  /// Finish the merge: requires exactly `expected` unique responses (a
  /// shortfall means the transport lost responses and no retry layer
  /// recovered them -- throws instead of returning a silently truncated
  /// log) and returns them sorted by request id.
  std::vector<Response> finish(std::size_t expected);

 private:
  std::map<std::uint64_t, Response> by_id_;
  std::map<std::size_t, std::uint64_t> newest_sequence_; ///< per shard
  MergeStats stats_;
};

/// Fan-in of K shard result streams into one sink: forwards every
/// response and telemetry record, and turns K close() calls (one per
/// draining shard scheduler) into exactly one close of the inner sink --
/// after the *last* shard finished. Thread-safe; misuse is loud:
/// forwarding after the last close, or closing more times than there are
/// shards, throws instead of corrupting the downstream sink.
class FanInSink final : public ResultSink {
 public:
  FanInSink(ResultSink* inner, std::size_t shards);

  void on_response(const Response& response) override;
  void on_telemetry(const RequestTelemetry& telemetry) override;
  void close() override;

  /// Shards that have not yet closed their stream.
  std::size_t open_shards() const {
    return open_shards_.load(std::memory_order_acquire);
  }

 private:
  ResultSink* inner_;
  std::atomic<std::size_t> open_shards_;
};

/// Per-shard slice of the serve run-id domains a routed log leases.
struct ShardLeaseDomain {
  std::uint64_t requests = 0;    ///< requests this shard served
  std::uint64_t sessions = 0;    ///< distinct sessions this shard served
  std::uint64_t first_run_id = 0; ///< smallest leased serve-domain run id
  std::uint64_t last_run_id = 0;  ///< largest leased serve-domain run id
  /// Requests this shard served on behalf of a crashed/partitioned peer
  /// (router primary elsewhere). 0 in fault-free operation.
  std::uint64_t failover_requests = 0;
};

/// Audit of how a log's run-id leases split across shards.
struct LeaseCensus {
  std::vector<ShardLeaseDomain> per_shard;
  /// Every serve-domain lease block is owned by exactly one shard (false
  /// would mean duplicate request ids in the log or a routing bug).
  /// Failover rerouting preserves this by construction: a lease belongs
  /// to its request id, and each id merges exactly once.
  bool disjoint = true;
};

/// Cluster sizing.
struct ShardClusterConfig {
  ShardRouterConfig router;
  /// Live-mode sizing of each shard's scheduler (queue + workers).
  SchedulerConfig scheduler;
};

/// Knobs of the replay's retry/failover loop.
struct FaultToleranceConfig {
  RetryPolicy retry;
  FailureDetectorConfig detector;
  /// Hard ceiling on simulated virtual time: exceeding it means the fault
  /// schedule starved the replay outright, which throws rather than
  /// spinning forever.
  std::uint64_t max_ticks = 1'000'000;
};

/// Fault-handling observability of one replay. Every count is a pure
/// function of (log, configuration, transport fault schedule).
struct FaultStats {
  std::uint64_t dispatches = 0;   ///< work sends, initial + retransmit
  std::uint64_t retries = 0;      ///< dispatches beyond each request's first
  std::uint64_t reroutes = 0;     ///< dispatches sent to a non-primary shard
  std::uint64_t executions = 0;   ///< shard-side request executions
  /// Work deliveries polled off the transport, duplicates included. The
  /// airtight arrival-side identity: work_arrivals == executions +
  /// work_discarded -- every delivered work message either executed or
  /// died with a crashed shard, never a third fate. (Dispatch-side
  /// accounting cannot be exact: the transport may both drop and
  /// duplicate work in flight.)
  std::uint64_t work_arrivals = 0;
  /// Work that arrived at a crashed shard and died with it (the retry
  /// deadline recovers the request).
  std::uint64_t work_discarded = 0;
  std::uint64_t heartbeats = 0;   ///< heartbeats emitted by live shards
  std::uint64_t messages_dropped = 0;  ///< transport loss injections
  std::uint64_t shard_failovers = 0;   ///< up -> down declarations
  std::uint64_t shard_rejoins = 0;     ///< down -> up recoveries
  std::uint64_t final_tick = 0;        ///< virtual completion time

  /// Publish under the canonical serve.cluster.* names (counters set;
  /// final_tick as a gauge).
  void publish(obs::MetricsRegistry& registry) const;
};

/// Result of one sharded replay: the merged log plus what it took to get
/// there.
struct ShardedReplayResult {
  /// The merged global log, ordered by request id; bitwise identical to
  /// single-node Scheduler::replay of the same log.
  std::vector<Response> responses;
  MergeStats merge;
  FaultStats faults;
  /// Primary (router) request counts per shard.
  std::vector<std::size_t> per_shard_requests;
  /// Shard whose execution produced each merged response, in log order.
  /// Differs from the primary route exactly where failover rerouted.
  std::vector<std::size_t> executed_by;
};

/// K identically configured service shards behind one router.
///
/// Two modes, mirroring Scheduler:
/// - replay(log, parallelism, transport, config): deterministic merged
///   replay -- route, execute every request on its shard (the replay
///   pipeline of Scheduler::replay), then dispatch work and merge the
///   responses over a ClusterTransport that may reorder, duplicate and
///   drop messages, crash shards and partition links. The coordinator
///   re-requests past-deadline responses with capped exponential backoff
///   and reroutes around shards its failure detector declared down;
///   recovered shards rejoin without re-executing work that already
///   merged. Default transport is the perfect DirectClusterTransport.
/// - start()/submit()/drain_and_stop(): live mode -- each shard runs its
///   own Scheduler over its own bounded priority queue, all fanning into
///   one shared sink; submit() routes by session key. Per-priority latency
///   telemetry merges across shards via util::LatencyHistogram::merge.
class ShardCluster {
 public:
  ShardCluster(quant::CalibrationStore& store, ServiceConfig service,
               ShardClusterConfig config = {});
  ~ShardCluster();

  ShardCluster(const ShardCluster&) = delete;
  ShardCluster& operator=(const ShardCluster&) = delete;

  std::size_t shard_count() const { return services_.size(); }
  const ShardRouter& router() const { return router_; }
  const ShardClusterConfig& config() const { return config_; }

  DiagnosticsService& shard(std::size_t s);

  /// Shard a session key routes to.
  std::size_t route(const SessionKey& key) const { return router_.route(key); }

  /// Audit the per-shard run-id sub-domains a log would lease under pure
  /// router placement (no failover).
  LeaseCensus lease_census(std::span<const Request> log) const;

  /// Audit a *completed* replay: attributes each request's lease block to
  /// the shard that actually produced its merged response (`executed_by`
  /// from ShardedReplayResult). Disjointness must survive failover
  /// rerouting -- leases are keyed by request id, never by shard.
  LeaseCensus lease_census(std::span<const Request> log,
                           std::span<const std::size_t> executed_by) const;

  // --- deterministic replay -------------------------------------------------

  /// Merged K-shard replay of a recorded log, over a transport that may
  /// be lossy, crashy and partitioned. parallelism 0 = hardware, 1 =
  /// sequential inline (per the BatchRunner contract); `transport`
  /// nullptr uses the perfect DirectClusterTransport. The merged
  /// responses are bitwise identical to single-node Scheduler::replay at
  /// any parallelism and under any seeded fault schedule (tests/netsim/
  /// pins this). Request ids must be unique; a repeat throws before
  /// anything executes.
  ShardedReplayResult replay(std::span<const Request> log,
                             std::size_t parallelism = 0,
                             ClusterTransport* transport = nullptr,
                             const FaultToleranceConfig& fault_config = {});

  // --- live mode ------------------------------------------------------------

  /// Start every shard's scheduler. `sink` (optional) receives every
  /// response and telemetry record across all shards; it is closed exactly
  /// once, after the last shard drained. One-shot, like Scheduler.
  void start(ResultSink* sink = nullptr);

  /// Route + non-blocking admission on the owning shard's queue.
  Admission submit(Request request);

  /// Route + blocking admission (backpressure on the owning shard).
  Admission submit_wait(Request request);

  /// Route + bounded-wait admission (kRejectedTimeout once `timeout`
  /// expires on a full owning-shard queue).
  Admission submit_wait_for(Request request, std::chrono::nanoseconds timeout);

  /// Drain and stop every shard, then close the sink. Idempotent.
  void drain_and_stop();

  bool running() const { return running_; }

  /// Requests fully served in live mode, across all shards.
  std::uint64_t completed() const;

  /// One priority class's latency account, merged across all shards.
  PriorityTelemetry telemetry(Priority priority) const;

  /// Admission accounting (accepted / rejected / shed / timed out),
  /// merged across all shard queues. Zeros before start().
  QueueStats queue_stats() const;

  // --- observability ---------------------------------------------------------
  // Attach before replaying or start(); every attach throws util::Error
  // while live mode runs (each shard scheduler fixed its surfaces at
  // start()).

  /// Attach a trace recorder (nullptr = off) to the cluster and every
  /// shard service: replay then records kShardRoute / kMerge spans (plus
  /// kRetry / kReroute / kFailover / kRejoin when the transport forces
  /// recovery), and the services record their execution spans.
  void set_trace(obs::TraceRecorder* trace);

  /// Attach a metrics registry (nullptr = off) to every shard service and,
  /// at start(), to each shard's scheduler for its live latency account
  /// (labels carry the shard index). Replay additionally publishes its
  /// merge/fault stats on completion, so one attached registry satisfies
  /// every serve conservation rule.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Publish every shard's admission account and completion counters into
  /// `registry` (per-shard labels), live mode only; no-op before start().
  void publish_metrics(obs::MetricsRegistry& registry) const;

  /// Attach a telemetry bus (nullptr = off). Replay then streams
  /// each request's capture (kShardRoute + the service's spans + metric
  /// deltas) in log order during the execution phase -- BEFORE transport
  /// and merge -- so the published frame sequence is a pure function of
  /// (log, configuration): independent of parallelism AND of the
  /// transport's fault schedule (coordinator-side kMerge / kRetry /
  /// kFailover spans are batch metadata of the recovery schedule and
  /// deliberately do not stream). Live mode forwards the bus to every
  /// shard scheduler at start().
  void set_stream(obs::TelemetryBus* stream);

 private:
  /// Primary-route execution: the replay pipeline with request i on shard
  /// shard_of[i]. Each request's kShardRoute span opens its capture, and
  /// the captures commit in log order to the attached surfaces.
  std::vector<Response> run_primary(std::span<const Request> log,
                                    std::span<const std::size_t> shard_of,
                                    std::size_t parallelism);

  /// Router (primary) shard of every request in `log`.
  std::vector<std::size_t> primaries(std::span<const Request> log) const;

  ShardClusterConfig config_;
  ShardRouter router_;
  std::vector<std::unique_ptr<DiagnosticsService>> services_;
  std::vector<std::unique_ptr<Scheduler>> schedulers_; ///< live mode only
  std::unique_ptr<FanInSink> fan_in_;
  bool running_ = false;
  bool live_used_ = false;
  obs::TraceRecorder* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TelemetryBus* stream_ = nullptr;
};

}  // namespace idp::serve
