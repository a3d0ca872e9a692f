/// \file request_queue.hpp
/// The service front door: a bounded, multi-class priority queue with
/// explicit admission control. A request is either *accepted* or
/// *rejected with a reason* -- the queue never drops silently. Capacity is
/// shared across the three priority classes, with an optional stat-only
/// reserve so emergency requests still admit when routine/batch traffic
/// has filled the house. Dispatch order is strict priority (stat before
/// routine before batch) and FIFO within a class, so a stat request can
/// never be inverted behind lower-priority work.
///
/// Graceful degradation: the queue doubles as the overload controller.
/// Optional shed watermarks turn sustained depth into *early, explicit*
/// rejection of the lowest-value classes -- batch work sheds first, then
/// routine, stat never -- so under overload the queue keeps headroom for
/// the traffic whose latency matters instead of filling up with batch
/// backlog. A shed is an admission outcome (kRejectedShed) with its own
/// counter, never a silent drop.
///
/// Determinism note: the queue orders *dispatch*, never results. Response
/// payloads derive from leased run-id blocks (serve/service.hpp), so the
/// service's output is bitwise independent of arrival interleaving or of
/// which worker pops what.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

#include "serve/request.hpp"

namespace idp::obs {
class MetricsRegistry;
struct MetricLabels;
}  // namespace idp::obs

namespace idp::serve {

/// Queue sizing and admission-control knobs.
struct RequestQueueConfig {
  /// Total capacity across all priority classes; must be > 0 (a
  /// zero-capacity service could only reject, which is a config mistake).
  std::size_t capacity = 1024;

  /// Slots of `capacity` only stat requests may use: routine/batch
  /// admission requires depth < capacity - stat_reserve. Must be smaller
  /// than capacity.
  std::size_t stat_reserve = 0;

  /// Overload shedding: once depth >= batch_shed_depth, batch admissions
  /// return kRejectedShed instead of queueing (0 disables). Must not
  /// exceed the non-stat usable capacity, or the watermark could never
  /// fire before kRejectedFull made it moot.
  std::size_t batch_shed_depth = 0;

  /// Same watermark for routine work; sheds after batch (must be >=
  /// batch_shed_depth when both are enabled). Stat is never shed.
  std::size_t routine_shed_depth = 0;
};

/// Outcome of an admission attempt.
enum class Admission : std::uint8_t {
  kAccepted = 0,
  kRejectedFull = 1,     ///< explicit backpressure signal to the caller
  kRejectedClosed = 2,   ///< the service is shutting down
  kRejectedShed = 3,     ///< overload controller shed this class early
  kRejectedTimeout = 4,  ///< push_wait_for expired before space appeared
};

const char* to_string(Admission admission);

/// Snapshot of the queue's admission accounting -- the telemetry surface
/// the scheduler and the sharded cluster expose. Airtight by conservation:
/// offered == accepted + rejected_full + rejected_closed + shed +
/// timed_out -- every offered request lands in exactly one bucket, nothing
/// is ever dropped silently (obs::serve_conservation_rules() pins this).
struct QueueStats {
  std::size_t depth = 0;
  std::size_t high_water = 0;
  std::uint64_t offered = 0;  ///< admission attempts, any outcome
  std::uint64_t accepted = 0;
  std::uint64_t rejected_full = 0;
  std::uint64_t rejected_closed = 0;  ///< offers against a closed queue
  std::uint64_t shed = 0;       ///< overload-controller rejections
  std::uint64_t timed_out = 0;  ///< bounded waits that expired

  /// Fold another queue's account in (cross-shard aggregation).
  void merge(const QueueStats& other) {
    depth += other.depth;
    high_water = high_water > other.high_water ? high_water : other.high_water;
    offered += other.offered;
    accepted += other.accepted;
    rejected_full += other.rejected_full;
    rejected_closed += other.rejected_closed;
    shed += other.shed;
    timed_out += other.timed_out;
  }

  /// Publish this snapshot into a metrics registry under the canonical
  /// serve.queue.* names (counters set, depth/high_water as gauges).
  void publish(obs::MetricsRegistry& registry,
               const obs::MetricLabels& labels) const;
};

/// One queued request plus its enqueue instant (for queue-wait telemetry).
struct QueuedRequest {
  Request request;
  std::chrono::steady_clock::time_point enqueued_at;
};

/// Thread-safe bounded priority queue (three FIFO lanes).
class RequestQueue {
 public:
  explicit RequestQueue(RequestQueueConfig config = {});

  const RequestQueueConfig& config() const { return config_; }

  /// Non-blocking admission: accepted, or rejected-full / rejected-shed /
  /// rejected-closed.
  Admission try_push(Request request);

  /// Blocking admission (backpressure): waits for space, then accepts;
  /// returns kRejectedClosed if the queue closes while waiting. A class
  /// above its shed watermark does not wait -- overload means "go away
  /// now", so it returns kRejectedShed immediately.
  Admission push_wait(Request request);

  /// Bounded-wait admission: like push_wait, but gives up with
  /// kRejectedTimeout once `timeout` elapses without space. Callers that
  /// cannot block forever on a full queue use this instead of try_push
  /// polling loops.
  Admission push_wait_for(Request request, std::chrono::nanoseconds timeout);

  /// Blocking dispatch: pops the oldest request of the highest non-empty
  /// priority class. Returns false when the queue is closed *and* drained
  /// (a closed queue still hands out everything it accepted).
  bool pop(QueuedRequest& out);

  /// Non-blocking dispatch.
  bool try_pop(QueuedRequest& out);

  /// Close the queue: subsequent pushes reject with kRejectedClosed,
  /// blocked pushers wake and reject, pops drain the remaining requests.
  void close();

  bool closed() const;

  /// Requests currently waiting (all classes).
  std::size_t depth() const;
  /// Largest depth ever observed.
  std::size_t high_water() const;

  /// One consistent snapshot of the admission counters.
  QueueStats stats() const;

 private:
  /// Admission rule for one class given the current depth.
  bool has_space_locked(Priority priority) const;
  /// Overload rule: above its watermark, a class sheds instead of queueing.
  bool should_shed_locked(Priority priority) const;
  Admission push_locked(Request&& request);

  RequestQueueConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;  ///< a request was enqueued / closed
  std::condition_variable space_;  ///< a slot freed up / closed
  std::array<std::deque<QueuedRequest>, kPriorityCount> lanes_;
  std::size_t depth_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t rejected_closed_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t timed_out_ = 0;
  bool closed_ = false;
};

}  // namespace idp::serve
