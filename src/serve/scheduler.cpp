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
  return replay_pipeline(log, services, parallelism, stream_out_.get());
}

void Scheduler::set_stream(obs::TelemetryBus* stream, std::int32_t shard) {
  util::require(!running_, "attach the telemetry stream before start()");
  stream_ = stream;
  stream_shard_ = shard;
  stream_out_ =
      stream_ == nullptr
          ? nullptr
          : std::make_unique<obs::TelemetryStream>(
                *stream_, service_.trace(), service_.metrics());
}

void Scheduler::start(ResultSink* sink) {
  util::require(!running_, "scheduler is already running");
  // Live mode is one-shot: drain_and_stop closes the queue permanently,
  // and restarted workers would exit immediately against it while
  // submit() kept rejecting -- an up-looking scheduler that serves
  // nothing. Make that misuse loud instead.
  util::require(!queue_.closed(),
                "scheduler cannot restart after drain_and_stop");
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
  const obs::TraceEvent event{id, obs::SpanKind::kAdmission,
                              static_cast<std::uint64_t>(priority), 0, 0,
                              time_h, static_cast<double>(admission)};
  if (stream_out_ != nullptr) {
    // Streams the span AND folds it into the service's attached recorder;
    // a separately attached scheduler recorder still gets its copy.
    stream_out_->publish_span(tenant, event);
    if (trace_ != nullptr && trace_ != service_.trace()) trace_->record(event);
    return;
  }
  if (trace_ != nullptr) trace_->record(event);
}

Admission Scheduler::submit(Request request) {
  const std::uint64_t id = request.id;
  const Priority priority = request.priority;
  const auto tenant = static_cast<std::int32_t>(request.session.tenant);
  const double time_h = request.time_h;
  const Admission admission = queue_.try_push(std::move(request));
  note_admission(id, priority, tenant, time_h, admission);
  return admission;
}

Admission Scheduler::submit_wait(Request request) {
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

std::uint64_t Scheduler::completed() const {
  const std::lock_guard<std::mutex> lock(telemetry_mutex_);
  std::uint64_t n = 0;
  for (const PriorityTelemetry& t : telemetry_) n += t.completed;
  return n;
}

PriorityTelemetry Scheduler::telemetry(Priority priority) const {
  const std::lock_guard<std::mutex> lock(telemetry_mutex_);
  return telemetry_[static_cast<std::size_t>(priority)];
}

void Scheduler::set_metrics(obs::MetricsRegistry* metrics, std::int32_t shard) {
  util::require(!running_, "attach metrics before start()");
  metrics_ = metrics;
  if (metrics_ == nullptr) {
    completed_metric_ = {};
    queue_wait_metric_ = {};
    service_time_metric_ = {};
    return;
  }
  // Resolve the per-priority handles once; registry references are stable,
  // so the worker hot path is an atomic add plus one histogram lock.
  for (std::size_t p = 0; p < kPriorityCount; ++p) {
    obs::MetricLabels labels;
    labels.shard = shard;
    labels.priority = static_cast<std::int32_t>(p);
    completed_metric_[p] =
        &metrics_->counter("serve.scheduler.completed", labels);
    queue_wait_metric_[p] =
        &metrics_->histogram("serve.scheduler.queue_wait_s", labels);
    service_time_metric_[p] =
        &metrics_->histogram("serve.scheduler.service_time_s", labels);
  }
}

void Scheduler::publish_metrics(obs::MetricsRegistry& registry,
                                std::int32_t shard) const {
  obs::MetricLabels shard_labels;
  shard_labels.shard = shard;
  queue_stats().publish(registry, shard_labels);
  const std::lock_guard<std::mutex> lock(telemetry_mutex_);
  for (std::size_t p = 0; p < kPriorityCount; ++p) {
    obs::MetricLabels labels = shard_labels;
    labels.priority = static_cast<std::int32_t>(p);
    registry.counter("serve.scheduler.completed", labels)
        .set(telemetry_[p].completed);
    if (&registry != metrics_) {
      // The live registry already saw every observation streamed by the
      // workers; merging the account again would double-count it.
      registry.histogram("serve.scheduler.queue_wait_s", labels)
          .merge(telemetry_[p].queue_wait);
      registry.histogram("serve.scheduler.service_time_s", labels)
          .merge(telemetry_[p].service_time);
    }
  }
}

void Scheduler::worker_loop() {
  QueuedRequest item;
  while (queue_.pop(item)) {
    const auto dispatched = std::chrono::steady_clock::now();
    const double queue_wait = seconds_between(item.enqueued_at, dispatched);

    obs::TelemetryCapture capture;
    const bool streaming = stream_out_ != nullptr;
    const Response response =
        service_.execute(item.request, streaming ? &capture : nullptr);

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

    {
      const std::lock_guard<std::mutex> lock(telemetry_mutex_);
      PriorityTelemetry& account =
          telemetry_[static_cast<std::size_t>(response.priority)];
      ++account.completed;
      account.queue_wait.add(queue_wait);
      account.service_time.add(service_time);
    }
    const auto lane = static_cast<std::size_t>(response.priority);
    if (metrics_ != nullptr) {
      completed_metric_[lane]->add(1);
      queue_wait_metric_[lane]->observe(queue_wait);
      service_time_metric_[lane]->observe(service_time);
    }
    // Observational span: `value` is wall seconds, the one deliberate
    // exception to the pure-function field contract (live mode only).
    const obs::TraceEvent queue_wait_span{
        response.request_id, obs::SpanKind::kQueueWait, lane, 0, 0,
        response.time_h, queue_wait};
    if (streaming) {
      // Stream the request's capture at completion, with the scheduler's
      // wall-clock account riding along as non-fold deltas (the direct
      // writes above already applied them; the stream only publishes).
      obs::MetricLabels labels;
      labels.shard = stream_shard_;
      labels.priority = static_cast<std::int32_t>(lane);
      capture.ops.push_back({obs::MetricType::kCounter,
                             "serve.scheduler.completed", labels, 1.0,
                             false});
      capture.observe("serve.scheduler.queue_wait_s", labels, queue_wait,
                      false);
      capture.observe("serve.scheduler.service_time_s", labels, service_time,
                      false);
      capture.span(queue_wait_span);
      stream_out_->publish(capture);
      if (trace_ != nullptr && trace_ != service_.trace()) {
        trace_->record(queue_wait_span);
      }
    } else if (trace_ != nullptr) {
      trace_->record(queue_wait_span);
    }
    if (sink_ != nullptr) {
      sink_->on_response(response);
      sink_->on_telemetry(telemetry);
    }
  }
}

}  // namespace idp::serve
