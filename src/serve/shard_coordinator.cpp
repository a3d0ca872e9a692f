/// \file shard_coordinator.cpp
/// ShardCluster + ResultMerger implementation: routing, the deterministic
/// merged replay with its retry/failover loop over a (possibly faulty)
/// transport, and the live fan-in mode.

#include "serve/shard_coordinator.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "util/error.hpp"

namespace idp::serve {

// --- ResultMerger -----------------------------------------------------------

bool ResultMerger::accept(const ResponseEnvelope& envelope) {
  ++stats_.delivered;

  const auto [it, fresh] =
      by_id_.try_emplace(envelope.response.request_id, envelope.response);
  (void)it;
  if (!fresh) {
    // Redelivery of an already-merged id: counted, content dropped. A
    // duplicate says nothing about wire reordering of fresh traffic, so
    // it must not feed the reorder tracker below.
    ++stats_.duplicates_seen;
    return false;
  }

  // Reorder depth over first deliveries only: how far behind its shard's
  // newest-seen sequence this fresh arrival is.
  auto [newest, inserted] =
      newest_sequence_.try_emplace(envelope.shard, envelope.sequence);
  if (!inserted) {
    if (envelope.sequence < newest->second) {
      stats_.max_reorder_distance = std::max(
          stats_.max_reorder_distance, newest->second - envelope.sequence);
    } else {
      newest->second = envelope.sequence;
    }
  }
  return true;
}

void MergeStats::publish(obs::MetricsRegistry& registry,
                         std::uint64_t merged) const {
  registry.counter("serve.merge.delivered").set(delivered);
  registry.counter("serve.merge.merged").set(merged);
  registry.counter("serve.merge.duplicates").set(duplicates_seen);
  registry.gauge("serve.merge.reorder_max")
      .set(static_cast<double>(max_reorder_distance));
}

void FaultStats::publish(obs::MetricsRegistry& registry) const {
  registry.counter("serve.cluster.dispatches").set(dispatches);
  registry.counter("serve.cluster.retries").set(retries);
  registry.counter("serve.cluster.reroutes").set(reroutes);
  registry.counter("serve.cluster.executions").set(executions);
  registry.counter("serve.cluster.work_arrivals").set(work_arrivals);
  registry.counter("serve.cluster.work_discarded").set(work_discarded);
  registry.counter("serve.cluster.heartbeats").set(heartbeats);
  registry.counter("serve.cluster.messages_dropped").set(messages_dropped);
  registry.counter("serve.cluster.failovers").set(shard_failovers);
  registry.counter("serve.cluster.rejoins").set(shard_rejoins);
  registry.gauge("serve.cluster.final_tick")
      .set(static_cast<double>(final_tick));
}

std::vector<Response> ResultMerger::finish(std::size_t expected) {
  // A shortfall means the transport lost messages and no retry layer
  // recovered them: a silently truncated global log would defeat the
  // bitwise-replay guarantee downstream consumers rely on.
  util::require(by_id_.size() == expected,
                "merge incomplete: transport lost responses");
  std::vector<Response> out;
  out.reserve(by_id_.size());
  for (auto& [id, response] : by_id_) out.push_back(std::move(response));
  by_id_.clear();
  newest_sequence_.clear();
  return out;
}

// --- FanInSink --------------------------------------------------------------

FanInSink::FanInSink(ResultSink* inner, std::size_t shards)
    : inner_(inner), open_shards_(shards) {
  util::require(shards > 0, "fan-in needs at least one shard stream");
}

void FanInSink::on_response(const Response& response) {
  util::require(open_shards_.load(std::memory_order_acquire) > 0,
                "fan-in response after the last shard closed");
  if (inner_ != nullptr) inner_->on_response(response);
}

void FanInSink::on_telemetry(const RequestTelemetry& telemetry) {
  util::require(open_shards_.load(std::memory_order_acquire) > 0,
                "fan-in telemetry after the last shard closed");
  if (inner_ != nullptr) inner_->on_telemetry(telemetry);
}

void FanInSink::close() {
  // Countdown-close: the K'th close (one per draining shard) closes the
  // inner sink exactly once. CAS loop so an extra close can never wrap
  // the counter and resurrect a closed sink -- it throws instead.
  std::size_t open = open_shards_.load(std::memory_order_acquire);
  for (;;) {
    util::require(open > 0, "fan-in closed more times than it has shards");
    if (open_shards_.compare_exchange_weak(open, open - 1,
                                           std::memory_order_acq_rel)) {
      break;
    }
  }
  if (open == 1 && inner_ != nullptr) inner_->close();
}

// --- ShardCluster -----------------------------------------------------------

ShardCluster::ShardCluster(quant::CalibrationStore& store,
                           ServiceConfig service, ShardClusterConfig config)
    : config_(config), router_(config.router) {
  // Every shard gets an identically configured service over the shared
  // store. The store's campaign cache is first-insert-wins with stable
  // addresses and campaign builds are pure functions of their run-id
  // block, so shards sharing it stay bitwise independent of each other.
  services_.reserve(router_.shard_count());
  for (std::size_t s = 0; s < router_.shard_count(); ++s) {
    services_.push_back(std::make_unique<DiagnosticsService>(store, service));
  }
}

ShardCluster::~ShardCluster() { drain_and_stop(); }

DiagnosticsService& ShardCluster::shard(std::size_t s) {
  util::require(s < services_.size(), "shard index out of range");
  return *services_[s];
}

std::vector<std::size_t> ShardCluster::primaries(
    std::span<const Request> log) const {
  std::vector<std::size_t> shard_of(log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    shard_of[i] = router_.route(log[i].session);
  }
  return shard_of;
}

LeaseCensus ShardCluster::lease_census(std::span<const Request> log) const {
  return lease_census(log, primaries(log));
}

LeaseCensus ShardCluster::lease_census(
    std::span<const Request> log,
    std::span<const std::size_t> executed_by) const {
  util::require(executed_by.size() == log.size(),
                "census ownership must cover the whole log");
  const std::vector<std::size_t> primary = primaries(log);
  LeaseCensus census;
  census.per_shard.resize(shard_count());
  const DiagnosticsService& reference = *services_.front();
  const std::uint64_t lease_width = reference.config().run_ids_per_request;
  std::map<std::uint64_t, std::size_t> block_owner;
  std::vector<std::set<std::uint64_t>> shard_sessions(shard_count());
  for (std::size_t i = 0; i < log.size(); ++i) {
    const Request& r = log[i];
    const std::size_t s = executed_by[i];
    util::require(s < shard_count(), "census owner shard out of range");
    ShardLeaseDomain& domain = census.per_shard[s];
    const std::uint64_t base = reference.lease_base(r.id);
    if (domain.requests == 0) {
      domain.first_run_id = base;
      domain.last_run_id = base + lease_width - 1;
    } else {
      domain.first_run_id = std::min(domain.first_run_id, base);
      domain.last_run_id = std::max(domain.last_run_id, base + lease_width - 1);
    }
    ++domain.requests;
    if (s != primary[i]) ++domain.failover_requests;
    shard_sessions[s].insert(hash_of(r.session));
    // A lease block claimed twice -- by another shard (routing bug) or by
    // the same shard (duplicate request id) -- breaks the disjointness
    // the determinism contract rests on. Failover moves whole requests,
    // never splits a block, so this holds under rerouting too.
    const auto [owner, fresh] = block_owner.try_emplace(base, s);
    (void)owner;
    if (!fresh) census.disjoint = false;
  }
  for (std::size_t s = 0; s < shard_count(); ++s) {
    census.per_shard[s].sessions = shard_sessions[s].size();
  }
  return census;
}

std::vector<Response> ShardCluster::run_primary(
    std::span<const Request> log, std::span<const std::size_t> shard_of,
    std::size_t parallelism) {
  std::vector<DiagnosticsService*> service_of(log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    service_of[i] = services_[shard_of[i]].get();
  }
  // The route span opens each request's capture.
  const auto route = [&](std::size_t i, obs::TelemetryCapture& capture) {
    capture.span(log[i].id, obs::SpanKind::kShardRoute, shard_of[i], 0, 0,
                 log[i].time_h);
  };
  return replay_pipeline(log, service_of, parallelism,
                         obs::TelemetryStream{stream_, trace_, metrics_},
                         route);
}

// GCC 12's -Wfree-nonheap-object misfires on the stack-local bookkeeping
// vectors below once their destructors inline into this frame (PR 104475
// family); the allocation and deallocation are both the std::vector's own.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfree-nonheap-object"
#endif

ShardedReplayResult ShardCluster::replay(
    std::span<const Request> log, std::size_t parallelism,
    ClusterTransport* transport, const FaultToleranceConfig& fault_config) {
  DirectClusterTransport direct;
  if (transport == nullptr) transport = &direct;

  // Route up front -- shard assignment is fixed before anything executes,
  // exactly like run-id leases -- and index responses by request id so
  // arrivals map back to their log slot. A repeated id fails here, before
  // any request executes.
  const std::vector<std::size_t> shard_of = primaries(log);
  std::map<std::uint64_t, std::size_t> index_of;
  ShardedReplayResult result;
  result.per_shard_requests.assign(shard_count(), 0);
  result.executed_by.assign(log.size(), 0);
  for (std::size_t i = 0; i < log.size(); ++i) {
    ++result.per_shard_requests[shard_of[i]];
    const auto [it, fresh] = index_of.try_emplace(log[i].id, i);
    (void)it;
    util::ensure(fresh, "request ids in a log must be unique");
  }

  // Precompute the primary-route responses through the replay pipeline
  // (plan, one lane-batched measure per shard, finish); this is the only
  // place `parallelism` applies -- the fault simulation below
  // is a single-threaded virtual-clock loop, so its behaviour is a pure
  // function of (log, config, fault schedule) at any parallelism. A real
  // shard computes a response on first execution and caches it for
  // retransmits; precomputing expresses the identical purity statement.
  // Each request's capture commits once, here, in log order -- before
  // transport and merge. Recovery telemetry (kRetry / kReroute / kFailover
  // / kRejoin / kMerge, and failover re-executions) depends on the fault
  // schedule, so it commits to a bus-less sink: the stream's determinism
  // contract is over (log, seed, config) alone.
  const std::vector<Response> primary_responses =
      run_primary(log, shard_of, parallelism);
  const obs::TelemetryStream recovery{nullptr, trace_, metrics_};
  const auto record = [&](std::uint64_t key, obs::SpanKind kind,
                          std::uint64_t entity, std::uint64_t sequence,
                          double time_h = 0.0, double value = 0.0) {
    obs::TelemetryCapture capture;
    capture.span(key, kind, entity, sequence, transport->now(), time_h,
                 value);
    recovery.commit(capture);
  };

  RetryTracker tracker(fault_config.retry);
  FailureDetector detector(fault_config.detector, shard_count());
  ResultMerger merger;
  std::vector<std::uint64_t> next_heartbeat(shard_count(), 0);
  std::vector<std::uint64_t> next_sequence(shard_count(), 0);
  std::vector<std::uint64_t> attempts(log.size(), 0);

  // Dispatch = (re)transmit one request slot to the best shard the
  // coordinator currently believes is alive. Failover lives here: when
  // the detector declared the primary down, the work goes to the first
  // surviving peer -- which executes it live with the request's own
  // run-id lease, so the rerouted response is bitwise identical. The
  // first dispatch always goes to the primary (the detector has no verdict
  // yet) and is traced by the route span, so only retransmits trace here.
  const auto dispatch = [&](std::size_t index) {
    (void)tracker.dispatched(index, transport->now());
    const std::size_t primary = shard_of[index];
    const std::size_t target = detector.route_around(primary);
    if (target != primary) ++result.faults.reroutes;
    ++attempts[index];
    if (attempts[index] > 1) {
      const std::uint64_t id = log[index].id;
      const double time_h = log[index].time_h;
      record(id, obs::SpanKind::kRetry, target, attempts[index] - 1, time_h);
      if (target != primary) {
        record(id, obs::SpanKind::kReroute, target, attempts[index] - 1,
               time_h, static_cast<double>(primary));
      }
    }
    transport->send_work(WorkEnvelope{target, static_cast<std::uint64_t>(index)});
  };

  for (std::size_t i = 0; i < log.size(); ++i) dispatch(i);

  while (merger.merged() < log.size()) {
    util::ensure(transport->now() <= fault_config.max_ticks,
                 "fault schedule starved the replay: virtual-time ceiling "
                 "exceeded before every response merged");

    // Shard side: live shards emit heartbeats on their cadence. Crashed
    // shards stay silent, which is exactly the evidence the detector
    // turns into a failover.
    for (std::size_t s = 0; s < shard_count(); ++s) {
      if (!transport->shard_up(s)) continue;
      if (transport->now() >= next_heartbeat[s]) {
        transport->send_heartbeat(
            HeartbeatEnvelope{s, transport->now()});
        ++result.faults.heartbeats;
        next_heartbeat[s] =
            transport->now() + detector.config().heartbeat_interval_ticks;
      }
    }

    // Shard side: matured work arrivals execute. Work addressed to a
    // crashed shard is lost with it (the retry deadline recovers the
    // request). Re-execution is harmless: any shard's execution of
    // request r is bitwise identical, and the merger dedups.
    WorkEnvelope work;
    while (transport->poll_work(work)) {
      ++result.faults.work_arrivals;
      if (!transport->shard_up(work.shard)) {
        // Counted, never silently lost: the retry deadline recovers the
        // request, and the work conservation identity balances with it.
        ++result.faults.work_discarded;
        continue;
      }
      const std::size_t index = static_cast<std::size_t>(work.work_id);
      ++result.faults.executions;
      ResponseEnvelope envelope;
      envelope.shard = work.shard;
      envelope.sequence = next_sequence[work.shard]++;
      envelope.response = work.shard == shard_of[index]
                              ? primary_responses[index]
                              : services_[work.shard]->execute(log[index]);
      transport->send(std::move(envelope));
    }

    // Coordinator side: fold in liveness evidence, then sweep timeouts.
    // Both steps are bracketed so every verdict transition records a span:
    // heartbeats rejoin, timeouts fail over.
    std::vector<ShardHealth> before;
    for (std::size_t s = 0; s < shard_count(); ++s) {
      before.push_back(detector.health(s));
    }
    HeartbeatEnvelope heartbeat;
    while (transport->poll_heartbeat(heartbeat)) {
      detector.heartbeat(heartbeat.shard, transport->now());
    }
    detector.update(transport->now());
    for (std::size_t s = 0; s < before.size(); ++s) {
      const ShardHealth now_health = detector.health(s);
      if (now_health == before[s]) continue;
      record(s,
             now_health == ShardHealth::kDown ? obs::SpanKind::kFailover
                                              : obs::SpanKind::kRejoin,
             0, 0);
    }

    // Coordinator side: merge matured responses; completion cancels the
    // pending retry.
    ResponseEnvelope envelope;
    while (transport->poll(envelope)) {
      if (merger.accept(envelope)) {
        const std::size_t index = index_of.at(envelope.response.request_id);
        result.executed_by[index] = envelope.shard;
        tracker.completed(index);
        record(envelope.response.request_id, obs::SpanKind::kMerge,
               envelope.shard, envelope.sequence, envelope.response.time_h);
      }
    }

    // Retransmit everything past its deadline (capped exponential
    // backoff; throws once a request exhausts its attempt budget).
    for (const std::size_t index : tracker.expired(transport->now())) {
      dispatch(index);
    }

    transport->advance(1);
  }

  result.faults.dispatches = tracker.dispatches();
  result.faults.retries = tracker.retries();
  result.faults.messages_dropped = transport->dropped();
  result.faults.shard_failovers = detector.failovers();
  result.faults.shard_rejoins = detector.rejoins();
  result.faults.final_tick = transport->now();
  result.merge = merger.stats();
  result.responses = merger.finish(log.size());
  if (metrics_ != nullptr) {
    result.merge.publish(*metrics_, result.responses.size());
    result.faults.publish(*metrics_);
  }
  return result;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

void ShardCluster::start(ResultSink* sink) {
  util::require(!running_, "cluster is already running");
  util::require(!live_used_,
                "cluster cannot restart after drain_and_stop (its shard "
                "schedulers are one-shot; construct a fresh cluster)");
  live_used_ = true;
  fan_in_ = std::make_unique<FanInSink>(sink, shard_count());
  schedulers_.reserve(shard_count());
  for (std::size_t s = 0; s < shard_count(); ++s) {
    schedulers_.push_back(
        std::make_unique<Scheduler>(*services_[s], config_.scheduler));
    Scheduler& scheduler = *schedulers_.back();
    // Wire observability before the workers exist; every series the
    // scheduler adds carries this shard's label.
    scheduler.set_trace(trace_);
    scheduler.set_metrics(metrics_, static_cast<std::int32_t>(s));
    scheduler.set_stream(stream_, static_cast<std::int32_t>(s));
    scheduler.start(fan_in_.get());
  }
  running_ = true;
}

Admission ShardCluster::submit(Request request) {
  util::require(running_, "cluster is not running");
  return schedulers_[router_.route(request.session)]->submit(
      std::move(request));
}

Admission ShardCluster::submit_wait(Request request) {
  util::require(running_, "cluster is not running");
  return schedulers_[router_.route(request.session)]->submit_wait(
      std::move(request));
}

Admission ShardCluster::submit_wait_for(Request request,
                                        std::chrono::nanoseconds timeout) {
  util::require(running_, "cluster is not running");
  return schedulers_[router_.route(request.session)]->submit_wait_for(
      std::move(request), timeout);
}

void ShardCluster::drain_and_stop() {
  if (!running_) return;
  for (const std::unique_ptr<Scheduler>& scheduler : schedulers_) {
    scheduler->drain_and_stop();  // closes the fan-in once per shard
  }
  running_ = false;
}

std::uint64_t ShardCluster::completed() const {
  std::uint64_t n = 0;
  for (const std::unique_ptr<Scheduler>& scheduler : schedulers_) {
    n += scheduler->completed();
  }
  return n;
}

PriorityTelemetry ShardCluster::telemetry(Priority priority) const {
  PriorityTelemetry merged;
  for (const std::unique_ptr<Scheduler>& scheduler : schedulers_) {
    merged.merge(scheduler->telemetry(priority));
  }
  return merged;
}

QueueStats ShardCluster::queue_stats() const {
  QueueStats merged;
  for (const std::unique_ptr<Scheduler>& scheduler : schedulers_) {
    merged.merge(scheduler->queue_stats());
  }
  return merged;
}

void ShardCluster::set_trace(obs::TraceRecorder* trace) {
  util::ensure(!running_, "attach the trace recorder before start()");
  trace_ = trace;
  for (const std::unique_ptr<DiagnosticsService>& service : services_) {
    service->set_trace(trace);
  }
}

void ShardCluster::set_metrics(obs::MetricsRegistry* metrics) {
  util::ensure(!running_, "attach metrics before start()");
  metrics_ = metrics;
  for (const std::unique_ptr<DiagnosticsService>& service : services_) {
    service->set_metrics(metrics);
  }
}

void ShardCluster::set_stream(obs::TelemetryBus* stream) {
  util::ensure(!running_, "attach the telemetry stream before start()");
  stream_ = stream;
}

void ShardCluster::publish_metrics(obs::MetricsRegistry& registry) const {
  for (std::size_t s = 0; s < schedulers_.size(); ++s) {
    schedulers_[s]->publish_metrics(registry, static_cast<std::int32_t>(s));
  }
}

}  // namespace idp::serve
