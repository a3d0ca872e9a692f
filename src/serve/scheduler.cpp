/// \file scheduler.cpp
/// Scheduler implementation: deterministic replay (through the service's
/// replay pipeline) and the live worker loop with latency telemetry.

#include "serve/scheduler.hpp"

#include <chrono>
#include <utility>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace idp::serve {

namespace {

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

Scheduler::Scheduler(DiagnosticsService& service, SchedulerConfig config)
    : service_(service), config_(config), queue_(config.queue) {
  if (config_.workers == 0) {
    config_.workers = util::ThreadPool::default_parallelism();
  }
}

Scheduler::~Scheduler() { drain_and_stop(); }

std::vector<Response> Scheduler::replay(std::span<const Request> log,
                                        std::size_t parallelism) {
  const std::vector<DiagnosticsService*> services(log.size(), &service_);
  return replay_pipeline(
      log, services, parallelism,
      obs::TelemetryStream{bus_, service_.trace(), service_.metrics()});
}

void Scheduler::set_trace(obs::TraceRecorder* trace) {
  util::ensure(!running_, "attach the trace recorder before start()");
  service_.set_trace(trace);
}

void Scheduler::set_metrics(obs::MetricsRegistry* metrics, std::int32_t shard) {
  util::ensure(!running_, "attach metrics before start()");
  service_.set_metrics(metrics);
  shard_ = shard;
}

void Scheduler::set_stream(obs::TelemetryBus* stream, std::int32_t shard) {
  util::ensure(!running_, "attach the telemetry stream before start()");
  bus_ = stream;
  shard_ = shard;
}

void Scheduler::start(ResultSink* sink) {
  util::require(!running_, "scheduler is already running");
  // Live mode is one-shot: drain_and_stop closes the queue permanently,
  // and restarted workers would exit immediately against it while
  // submit() kept rejecting -- an up-looking scheduler that serves
  // nothing. Make that misuse loud instead.
  util::require(!queue_.closed(),
                "scheduler cannot restart after drain_and_stop");
  // The one place live telemetry surfaces are decided: the attached bus
  // and recorder, and the service's registry or, without one, our own.
  obs::MetricsRegistry* metrics = service_.metrics();
  live_ = obs::TelemetryStream{bus_, service_.trace(),
                               metrics != nullptr ? metrics : &own_metrics_};
  sink_ = sink;
  running_ = true;
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Scheduler::note_admission(std::uint64_t id, Priority priority,
                               std::int32_t tenant, double time_h,
                               Admission admission) {
  obs::TelemetryCapture capture;
  capture.tenant = tenant;
  capture.span(id, obs::SpanKind::kAdmission,
               static_cast<std::uint64_t>(priority), 0, 0, time_h,
               static_cast<double>(admission));
  live_.commit(capture);
}

Admission Scheduler::submit(Request request) {
  service_.validate(request);
  const std::uint64_t id = request.id;
  const Priority priority = request.priority;
  const auto tenant = static_cast<std::int32_t>(request.session.tenant);
  const double time_h = request.time_h;
  const Admission admission = queue_.try_push(std::move(request));
  note_admission(id, priority, tenant, time_h, admission);
  return admission;
}

Admission Scheduler::submit_wait(Request request) {
  service_.validate(request);
  const std::uint64_t id = request.id;
  const Priority priority = request.priority;
  const auto tenant = static_cast<std::int32_t>(request.session.tenant);
  const double time_h = request.time_h;
  const Admission admission = queue_.push_wait(std::move(request));
  note_admission(id, priority, tenant, time_h, admission);
  return admission;
}

Admission Scheduler::submit_wait_for(Request request,
                                     std::chrono::nanoseconds timeout) {
  service_.validate(request);
  const std::uint64_t id = request.id;
  const Priority priority = request.priority;
  const auto tenant = static_cast<std::int32_t>(request.session.tenant);
  const double time_h = request.time_h;
  const Admission admission =
      queue_.push_wait_for(std::move(request), timeout);
  note_admission(id, priority, tenant, time_h, admission);
  return admission;
}

void Scheduler::drain_and_stop() {
  if (!running_) return;
  queue_.close();  // pushes reject from here on; pops drain what was accepted
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  running_ = false;
  if (sink_ != nullptr) sink_->close();
  sink_ = nullptr;
}

obs::MetricLabels Scheduler::scheduler_labels(std::size_t priority) const {
  obs::MetricLabels labels;
  labels.shard = shard_;
  labels.priority = static_cast<std::int32_t>(priority);
  return labels;
}

std::uint64_t Scheduler::completed() const {
  std::uint64_t n = 0;
  for (std::size_t p = 0; p < kPriorityCount; ++p) {
    n += live_.metrics->counter("serve.scheduler.completed",
                                scheduler_labels(p))
             .value();
  }
  return n;
}

PriorityTelemetry Scheduler::telemetry(Priority priority) const {
  obs::MetricsRegistry& registry = *live_.metrics;
  const obs::MetricLabels labels =
      scheduler_labels(static_cast<std::size_t>(priority));
  PriorityTelemetry t;
  t.completed = registry.counter("serve.scheduler.completed", labels).value();
  t.queue_wait =
      registry.histogram("serve.scheduler.queue_wait_s", labels).snapshot();
  t.service_time =
      registry.histogram("serve.scheduler.service_time_s", labels).snapshot();
  return t;
}

void Scheduler::publish_metrics(obs::MetricsRegistry& registry,
                                std::int32_t shard) const {
  obs::MetricLabels shard_labels;
  shard_labels.shard = shard;
  queue_stats().publish(registry, shard_labels);
  for (std::size_t p = 0; p < kPriorityCount; ++p) {
    obs::MetricLabels labels = shard_labels;
    labels.priority = static_cast<std::int32_t>(p);
    registry.counter("serve.scheduler.completed", labels)
        .set(telemetry(static_cast<Priority>(p)).completed);
  }
}

void Scheduler::worker_loop() {
  QueuedRequest item;
  while (queue_.pop(item)) {
    const auto dispatched = std::chrono::steady_clock::now();
    const double queue_wait = seconds_between(item.enqueued_at, dispatched);

    // execute()'s stages, with the request's capture kept open so the
    // scheduler's account rides in it and everything commits once.
    RequestPlan plan = service_.plan(item.request);
    RequestPlan* const plans[] = {&plan};
    service_.measure(plans, 1);
    obs::TelemetryCapture capture;
    const Response response = service_.finish(plan, capture);

    const double service_time =
        seconds_between(dispatched, std::chrono::steady_clock::now());

    RequestTelemetry telemetry;
    telemetry.request_id = response.request_id;
    telemetry.priority = response.priority;
    telemetry.kind = response.kind;
    telemetry.queue_wait_s = queue_wait;
    telemetry.service_time_s = service_time;
    telemetry.calibration_epoch = response.calibration_epoch;
    telemetry.flags = static_cast<std::uint32_t>(response.flags());

    const auto lane = static_cast<std::size_t>(response.priority);
    const obs::MetricLabels labels = scheduler_labels(lane);
    capture.count("serve.scheduler.completed", labels);
    capture.observe("serve.scheduler.queue_wait_s", labels, queue_wait);
    capture.observe("serve.scheduler.service_time_s", labels, service_time);
    // Observational span: `value` is wall seconds, the one deliberate
    // exception to the pure-function field contract (live mode only).
    capture.span(response.request_id, obs::SpanKind::kQueueWait, lane, 0, 0,
                 response.time_h, queue_wait);
    live_.commit(capture);
    if (sink_ != nullptr) {
      sink_->on_response(response);
      sink_->on_telemetry(telemetry);
    }
  }
}

}  // namespace idp::serve
