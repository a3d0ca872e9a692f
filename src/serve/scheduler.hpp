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
///   wall-clock telemetry (queue wait, service time) to a ResultSink and
///   the per-priority latency histograms. Admission control is the
///   caller's choice per request: submit() rejects when full (open-loop
///   load shedding), submit_wait() blocks (backpressure).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
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

/// Per-priority latency account (seconds).
struct PriorityTelemetry {
  std::uint64_t completed = 0;
  util::LatencyHistogram queue_wait;
  util::LatencyHistogram service_time;

  /// Fold another account in (cross-shard / cross-worker aggregation).
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
  /// and telemetry record; it must outlive drain_and_stop(). Live mode is
  /// one-shot per Scheduler: starting again after drain_and_stop throws
  /// (the queue closed permanently; construct a fresh Scheduler instead).
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

  /// Requests fully served in live mode.
  std::uint64_t completed() const;

  /// Copy of one priority class's latency account. Predates the metrics
  /// registry; kept as the cross-shard merge primitive. publish_metrics()
  /// is the registry-era surface over the same counters.
  PriorityTelemetry telemetry(Priority priority) const;

  // --- observability ---------------------------------------------------------

  /// Attach a trace recorder (nullptr = tracing off, the default). Live
  /// admission and dispatch events record here, and the underlying
  /// service's spans ride along when it carries the same recorder.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

  /// Attach a metrics registry for live-mode streaming: workers add to
  /// serve.scheduler.completed and observe the queue_wait_s /
  /// service_time_s histograms as requests finish (labels: priority, plus
  /// `shard` when >= 0). Call before start().
  void set_metrics(obs::MetricsRegistry* metrics, std::int32_t shard = -1);

  /// Publish the admission account and per-priority completion counters
  /// (set-semantics) into `registry` under the canonical serve.* names.
  /// Latency histograms merge in too -- unless `registry` is the live
  /// registry attached via set_metrics, whose histograms already streamed.
  void publish_metrics(obs::MetricsRegistry& registry,
                       std::int32_t shard = -1) const;

  /// Attach a telemetry bus (nullptr = off). replay() then captures each
  /// request's telemetry privately and publishes it in log order through
  /// an obs::StreamSequencer -- per-topic frame sequences are bitwise
  /// identical at any parallelism (the `stream` determinism workload).
  /// Live workers publish each request's capture at completion, plus the
  /// wall-clock scheduler account (completed / queue_wait_s /
  /// service_time_s deltas) and the admission spans from submit().
  /// Captures fold into the service's attached trace/metrics on publish,
  /// so every batch-era export is unchanged by streaming. `shard` labels
  /// the live-mode scheduler deltas (like set_metrics).
  void set_stream(obs::TelemetryBus* stream, std::int32_t shard = -1);

 private:
  void worker_loop();

  /// Admission-span tap shared by the submit paths (streams and/or
  /// records, per what is attached).
  void note_admission(std::uint64_t id, Priority priority,
                      std::int32_t tenant, double time_h,
                      Admission admission);

  DiagnosticsService& service_;
  SchedulerConfig config_;
  RequestQueue queue_;
  std::vector<std::thread> workers_;
  ResultSink* sink_ = nullptr;
  bool running_ = false;

  obs::TraceRecorder* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TelemetryBus* stream_ = nullptr;
  /// Publisher over stream_ folding into the service's attached surfaces;
  /// rebuilt whenever set_stream is called.
  std::unique_ptr<obs::TelemetryStream> stream_out_;
  std::int32_t stream_shard_ = -1;  ///< shard label of live-mode stream ops
  /// Cached stable registry handles (one per priority) so the worker hot
  /// path pays no registry lookup.
  std::array<obs::Counter*, kPriorityCount> completed_metric_{};
  std::array<obs::Histogram*, kPriorityCount> queue_wait_metric_{};
  std::array<obs::Histogram*, kPriorityCount> service_time_metric_{};

  mutable std::mutex telemetry_mutex_;
  std::array<PriorityTelemetry, kPriorityCount> telemetry_;
};

}  // namespace idp::serve
