/// \file scheduler.hpp
/// The service scheduler: the component that turns the deterministic
/// per-request engine (serve/service.hpp) into a running service. Two
/// execution modes share one guarantee -- the response payload of request
/// r depends only on r, because the run-id lease is r's alone:
///
/// - replay(log, parallelism): execute a recorded request log through the
///   replay pipeline (serve::replay_pipeline: plan every request, measure
///   all reads in lockstep lanes, finish), every response written to its
///   pre-assigned slot. Bitwise identical at parallelism 1 / N / hardware,
///   and bitwise identical to what live mode produced for the same log
///   (the serve and cyp workloads of tests/determinism pin this).
/// - start()/submit()/drain_and_stop(): live mode. Worker threads pop the
///   bounded priority RequestQueue, execute, and feed responses plus
///   wall-clock telemetry (queue wait, service time) to a ResultSink. The
///   same latencies ride in each request's telemetry capture into the
///   metrics registry, the one latency account. Admission control is the
///   caller's choice per request: submit() rejects when full (open-loop
///   load shedding), submit_wait() blocks (backpressure).
#pragma once

#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"
#include "serve/request_queue.hpp"
#include "serve/result_sink.hpp"
#include "serve/service.hpp"
#include "util/stats.hpp"

namespace idp::serve {

/// Live-mode sizing.
struct SchedulerConfig {
  RequestQueueConfig queue;
  /// Worker threads for live mode; 0 = hardware concurrency.
  std::size_t workers = 0;
};

/// One priority class's latency account (seconds), as read back from the
/// registry's serve.scheduler.* series.
struct PriorityTelemetry {
  std::uint64_t completed = 0;
  util::LatencyHistogram queue_wait;
  util::LatencyHistogram service_time;

  /// Fold another account in (cross-shard aggregation).
  void merge(const PriorityTelemetry& other) {
    completed += other.completed;
    queue_wait.merge(other.queue_wait);
    service_time.merge(other.service_time);
  }
};

class Scheduler {
 public:
  explicit Scheduler(DiagnosticsService& service, SchedulerConfig config = {});

  /// Stops live mode (draining accepted requests) if still running.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  const SchedulerConfig& config() const { return config_; }

  // --- replay mode ----------------------------------------------------------

  /// Execute a recorded log; responses land in log order. parallelism 0 =
  /// hardware concurrency, 1 = sequential inline. Independent of live
  /// mode and of the queue.
  std::vector<Response> replay(std::span<const Request> log,
                               std::size_t parallelism = 0);

  // --- live mode ------------------------------------------------------------

  /// Launch the worker threads. `sink` (optional) receives every response
  /// and telemetry record; it must outlive drain_and_stop(). The telemetry
  /// surfaces are fixed here: the bus from set_stream, the service's trace
  /// recorder and its registry -- or, when the service has none, a
  /// registry this scheduler owns, so completed() and telemetry() always
  /// have an account to read. Live mode is one-shot per Scheduler:
  /// starting again after drain_and_stop throws (the queue closed
  /// permanently; construct a fresh Scheduler instead).
  void start(ResultSink* sink = nullptr);

  /// Non-blocking admission (explicit reject when full).
  Admission submit(Request request);

  /// Blocking admission (backpressure).
  Admission submit_wait(Request request);

  /// Bounded-wait admission: blocks up to `timeout` for queue space, then
  /// returns Admission::kRejectedTimeout (deadline-style backpressure).
  Admission submit_wait_for(Request request, std::chrono::nanoseconds timeout);

  /// Close the queue, drain every accepted request, join the workers and
  /// close the sink. Idempotent.
  void drain_and_stop();

  bool running() const { return running_; }

  const RequestQueue& queue() const { return queue_; }

  /// Snapshot of the queue's admission accounting (accepted / rejected /
  /// shed / timed out), taken under one lock.
  QueueStats queue_stats() const { return queue_.stats(); }

  /// Requests fully served in live mode: the sum of the registry's
  /// serve.scheduler.completed series for this scheduler's shard label
  /// (schedulers sharing one registry are told apart by that label only).
  std::uint64_t completed() const;

  /// One priority class's latency account, read from the live registry's
  /// serve.scheduler.{completed, queue_wait_s, service_time_s} series.
  PriorityTelemetry telemetry(Priority priority) const;

  // --- observability ---------------------------------------------------------
  // Every attach throws while live mode runs: the telemetry surfaces are
  // fixed at start().

  /// Attach a trace recorder to the underlying service (nullptr = off).
  /// Replay and live requests record their service spans there, live
  /// mode adds the kAdmission and kQueueWait spans.
  void set_trace(obs::TraceRecorder* trace);

  /// Attach a metrics registry to the underlying service (nullptr = off).
  /// Live workers add serve.scheduler.completed and observe the
  /// queue_wait_s / service_time_s histograms as requests finish (labels:
  /// priority, plus `shard` when >= 0), in the same capture as the
  /// request's serve.service.* series.
  void set_metrics(obs::MetricsRegistry* metrics, std::int32_t shard = -1);

  /// Publish the admission account and per-priority completion counters
  /// (set-semantics, idempotent) into `registry` under the canonical
  /// serve.* names. The latency histograms live in the live registry only.
  void publish_metrics(obs::MetricsRegistry& registry,
                       std::int32_t shard = -1) const;

  /// Attach a telemetry bus (nullptr = off). replay() commits each
  /// request's capture in log order through an obs::StreamSequencer --
  /// per-topic frame sequences are bitwise identical at any parallelism
  /// (the `stream` determinism workload). Live workers commit each
  /// request's capture at completion, carrying the wall-clock scheduler
  /// account (completed / queue_wait_s / service_time_s and the kQueueWait
  /// span); submit() commits one kAdmission span per call. `shard` labels
  /// the live-mode scheduler series; set_metrics and set_stream set the
  /// same one label, the later call wins.
  void set_stream(obs::TelemetryBus* stream, std::int32_t shard = -1);

 private:
  void worker_loop();

  /// Admission-span tap shared by the submit paths: a one-span capture.
  void note_admission(std::uint64_t id, Priority priority,
                      std::int32_t tenant, double time_h,
                      Admission admission);

  /// Labels of one priority class's serve.scheduler.* series.
  obs::MetricLabels scheduler_labels(std::size_t priority) const;

  DiagnosticsService& service_;
  SchedulerConfig config_;
  RequestQueue queue_;
  std::vector<std::thread> workers_;
  ResultSink* sink_ = nullptr;
  bool running_ = false;

  obs::TelemetryBus* bus_ = nullptr;
  std::int32_t shard_ = -1;  ///< shard label of the serve.scheduler.* series
  /// The live-mode registry when the service has none attached.
  obs::MetricsRegistry own_metrics_;
  /// Where live mode commits; fixed at start().
  obs::TelemetryStream live_{nullptr, nullptr, &own_metrics_};
};

}  // namespace idp::serve
