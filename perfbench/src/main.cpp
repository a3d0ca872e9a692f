/// \file main.cpp
/// perfbench: the repository benchmark. One workload per invocation:
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             --out <dir>
///
/// - `oxidase-replay`: Scheduler::replay of recorded logs on a glucose +
///   lactate panel (chronoamperometry).
/// - `cyp-sharded-replay`: ShardCluster::replay over 2 shards on a
///   benzphetamine + clozapine panel (cyclic voltammetry).
/// - `direct-live`: the live Scheduler under an open-loop Poisson schedule
///   on a dopamine + etoposide panel, with a TraceRecorder, a
///   MetricsRegistry and a TelemetryBus with one draining subscriber
///   attached, aging sensors and a recalibration cadence.
///
/// `--trace 0` measures the end-to-end metrics with the benchmark's span
/// ledger off. `--trace 1` repeats the workload with the ledger on and then
/// recomposes a sample of requests layer by layer from the outside (probe
/// -> front end -> engine -> response -> quantifier), bit-comparing every
/// recomposed read against the service, to report the per-layer metrics.
/// Every run bit-compares a sample of responses against a fresh service
/// executing them sequentially. The last stdout line is one JSON object
/// {correct, attempted, failed, metrics}. Exit codes: 0 valid, 1 output
/// mismatch, 2 usage, 3 invalid run (thread budget, generator lag, layer
/// sum or percentile support out of bounds).

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <variant>
#include <vector>

#include "ledger.hpp"
#include "obs/frame.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"
#include "quant/calibration_store.hpp"
#include "serve/result_sink.hpp"
#include "serve/scheduler.hpp"
#include "serve/shard_coordinator.hpp"
#include "serve/traffic.hpp"
#include "util/stats.hpp"

namespace {

using namespace idp;
using perfbench::Clock;
using perfbench::kMiss;
using perfbench::seconds_between;
using perfbench::SpanLedger;
using Scope = perfbench::SpanLedger::Scope;

// ------------------------------------------------------------ run constants
// Fixed numbers of the benchmark, chosen on the seed commit (README.md
// records how). Changing one changes the benchmark, not the program.

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupRepeats = 9;
/// Untimed warm-up window between set-up and the timed phase [s].
constexpr double kWarmupSeconds = 2.0;
/// Requests per replayed log (replay workloads).
constexpr std::size_t kReplayLogRequests = 256;
/// Requests of each replayed log bit-checked against a fresh service.
constexpr std::size_t kVerifyPerLog = 8;
/// Requests of the live log bit-checked against a fresh service.
constexpr std::size_t kVerifyLive = 400;
/// Replayed logs whose responses quant_err_p50_pct is taken over (a run
/// always replays at least this many).
constexpr std::size_t kQuantLogs = 8;
/// direct-live open-loop send rate [requests / s].
constexpr double kLiveRateRps = 3000.0;
/// Send time of one direct-live cohort [s]: a fresh set of sessions
/// monitored over the whole recalibration window; cohorts go back to back.
constexpr double kCohortSeconds = 2.5;
/// Run invalid when the generator sent later than this at p99 [ms].
constexpr double kLagLimitMs = 25.0;
/// Run invalid when sum(layer self time) / sum(execute) leaves 1 +- this.
constexpr double kLayerSumTolerance = 0.15;
/// Requests recomposed layer by layer in the traced run: the head of the
/// first replayed log, or the whole first direct-live cohort (so epoch
/// builds keep their share of the workload).
constexpr std::size_t kLedgerReplaySample = 48;
/// Requests of the ledger sample executed again bare and observed.
constexpr std::size_t kTaxSample = 2000;
/// Requests of the cluster-overhead probe (traced cyp-sharded-replay).
constexpr std::size_t kClusterProbeRequests = 24;
/// A miss in a latency metric reads as this many ms in the JSON result.
constexpr double kMissMs = 1e9;

enum class Mode { kReplay, kShardedReplay, kLive };

struct Workload {
  const char* name;
  Mode mode;
  std::vector<bio::TargetId> panel;
  std::size_t sessions;
  double duration_h;        ///< service-timeline window of a log
  bool aging;               ///< sensor degradation + recalibration cadence
  double slo_ms;            ///< within_slo_frac latency limit
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"oxidase-replay", Mode::kReplay,
       {bio::TargetId::kGlucose, bio::TargetId::kLactate}, 128, 24.0, false,
       1000.0},
      {"cyp-sharded-replay", Mode::kShardedReplay,
       {bio::TargetId::kBenzphetamine, bio::TargetId::kClozapine}, 128, 24.0,
       false, 750.0},
      {"direct-live", Mode::kLive,
       {bio::TargetId::kDopamine, bio::TargetId::kEtoposide}, 16, 24.0 * 8,
       true, 15.0},
  };
  return all;
}

/// The short-protocol campaign of the serve benches: 1 s chronoamperometry,
/// 4 calibration points, 4 blanks.
quant::CampaignConfig campaign_config() {
  quant::CampaignConfig config;
  config.calibration_points = 4;
  config.blank_measurements = 4;
  config.ca_duration_s = 1.0;
  return config;
}

serve::ServiceConfig service_config(const Workload& w) {
  serve::ServiceConfig config;
  config.panel = w.panel;
  config.engine_seed = 515;
  if (w.aging) {
    fault::DegradationParams d;
    d.fouling_rate_per_day = 0.03;
    d.sensor_variability = 0.2;
    d.reference_drift_V_per_day = 2e-4;
    d.afe_gain_drift_per_day = 2e-3;
    d.seed = 77;
    config.degradation = fault::DegradationModel(d);
    config.recalibration_interval_days = 1.0;
  }
  return config;
}

serve::TrafficSpec traffic(const Workload& w, std::size_t requests,
                           std::uint64_t seed) {
  // Default mix: 25% panel scans, 10% QC, 5% stat and 20% batch priority.
  serve::TrafficSpec spec;
  spec.requests = requests;
  spec.sessions = w.sessions;
  spec.tenants = 8;
  spec.devices = 2;
  spec.seed = seed;
  spec.duration_h = w.duration_h;
  return spec;
}

/// Cohorts of a direct-live run of `seconds`.
std::size_t live_cohorts(double seconds) {
  return static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / kCohortSeconds)));
}

/// The direct-live log: `cohorts` synthesized logs of `per` requests back
/// to back, each on its own tenants (so its sessions start cold) and
/// spanning the whole recalibration window, so every cohort crosses all
/// seven epoch boundaries. Ids stay dense.
std::vector<serve::Request> live_log(const Workload& w,
                                     const serve::DiagnosticsService& svc,
                                     std::size_t cohorts, std::size_t per,
                                     std::uint64_t seed) {
  std::vector<serve::Request> log;
  log.reserve(cohorts * per);
  for (std::size_t k = 0; k < cohorts; ++k) {
    const serve::TrafficSpec spec = traffic(w, per, seed * 1000 + k);
    for (serve::Request& r : serve::synthesize_traffic(spec, svc)) {
      r.id += k * per;
      r.session.tenant += static_cast<std::uint32_t>(k) * spec.tenants;
      log.push_back(std::move(r));
    }
  }
  return log;
}

/// Seed of replay log `index` of a run.
std::uint64_t log_seed(std::uint64_t seed, std::uint64_t index) {
  return seed * 1000003ULL + index;
}

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

/// CPU seconds consumed so far by the clock's owner (process or thread).
double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds of every thread but the calling one: the calling thread is
/// the load generator (or the caller blocked in replay), not the platform.
double platform_cpu_seconds() {
  return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) -
         cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss in KiB
}

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : perfbench::percentile(std::move(v), 50.0);
}

double pct(const std::vector<double>& v, double p) {
  return v.empty() ? 0.0 : perfbench::percentile(v, p);
}

// ----------------------------------------------------------- bit comparison

bool same_bits(double a, double b) {
  std::uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

bool same_estimate(const quant::ConcentrationEstimate& a,
                   const quant::ConcentrationEstimate& b) {
  return same_bits(a.value, b.value) && same_bits(a.ci_low, b.ci_low) &&
         same_bits(a.ci_high, b.ci_high) && a.flags == b.flags;
}

bool same_response(const serve::Response& a, const serve::Response& b) {
  if (a.request_id != b.request_id || a.session != b.session ||
      a.priority != b.priority || a.kind != b.kind ||
      !same_bits(a.time_h, b.time_h) ||
      !same_bits(a.sensor_age_days, b.sensor_age_days) ||
      a.calibration_epoch != b.calibration_epoch ||
      !same_bits(a.qc_blank_residual, b.qc_blank_residual) ||
      !same_bits(a.qc_standard_residual, b.qc_standard_residual) ||
      a.channels.size() != b.channels.size()) {
    return false;
  }
  for (std::size_t c = 0; c < a.channels.size(); ++c) {
    const serve::ChannelResult& x = a.channels[c];
    const serve::ChannelResult& y = b.channels[c];
    if (x.channel != y.channel || x.target != y.target ||
        !same_bits(x.truth_mM, y.truth_mM) ||
        !same_bits(x.response, y.response) ||
        !same_estimate(x.estimate, y.estimate)) {
      return false;
    }
  }
  return true;
}

/// Measurements (hence probe builds) one request costs on the serve path.
std::size_t measurements_of(const serve::Request& r, std::size_t channels) {
  switch (r.kind) {
    case serve::RequestKind::kPanelScan:
      return channels;
    case serve::RequestKind::kQuantifiedRead:
      return 1;
    case serve::RequestKind::kQcCheck:
      return 2;
  }
  return 0;
}

// ------------------------------------------------------------ result sink

/// The benchmark's ResultSink: stamps the arrival of every response and
/// keeps it (slot = request id) with its telemetry.
class BenchSink final : public serve::ResultSink {
 public:
  explicit BenchSink(std::size_t slots)
      : responses_(slots), telemetry_(slots), arrival_(slots), seen_(slots) {}

  void on_response(const serve::Response& response) override {
    const Clock::time_point now = Clock::now();
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t id = response.request_id;
    if (id >= seen_.size() || seen_[id] != 0) {
      ++unexpected_;
      return;
    }
    seen_[id] = 1;
    arrival_[id] = now;
    responses_[id] = response;
    ++received_;
  }

  void on_telemetry(const serve::RequestTelemetry& telemetry) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (telemetry.request_id < telemetry_.size()) {
      telemetry_[telemetry.request_id] = telemetry;
    }
  }

  void close() override {}

  std::size_t received() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return received_;
  }
  std::size_t unexpected() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return unexpected_;
  }
  // Slot reads take no lock: call them only after drain_and_stop() has
  // joined the workers that write the slots.
  bool seen(std::size_t id) const { return seen_[id] != 0; }
  Clock::time_point arrival(std::size_t id) const { return arrival_[id]; }
  const serve::Response& response(std::size_t id) const {
    return responses_[id];
  }
  const serve::RequestTelemetry& telemetry(std::size_t id) const {
    return telemetry_[id];
  }

 private:
  mutable std::mutex mutex_;
  std::vector<serve::Response> responses_;
  std::vector<serve::RequestTelemetry> telemetry_;
  std::vector<Clock::time_point> arrival_;
  std::vector<std::uint8_t> seen_;
  std::size_t received_ = 0;
  std::size_t unexpected_ = 0;
};

// --------------------------------------------------------------- deployment

/// Everything set-up builds: store, service or cluster, and for the live
/// workload the attached observability, the drained telemetry bus and the
/// started scheduler. Destruction stops the scheduler, closes the bus and
/// joins the drain thread.
struct Deployment {
  std::unique_ptr<quant::CalibrationStore> store;
  std::unique_ptr<serve::DiagnosticsService> service;
  std::unique_ptr<serve::ShardCluster> cluster;
  std::vector<double> campaign_ms;  ///< per panel target

  // live only
  std::unique_ptr<obs::TraceRecorder> trace;
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::TelemetryBus> bus;
  std::unique_ptr<BenchSink> sink;
  std::unique_ptr<serve::Scheduler> scheduler;
  std::thread drain;
  std::vector<double> encode_us;  ///< written by the drain thread

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  ~Deployment() {
    if (scheduler) scheduler->drain_and_stop();
    if (bus) bus->close();
    if (drain.joinable()) drain.join();
  }
};

/// Requests whose sessions and epoch-0 timing touch nothing the measured
/// log uses: warm-up traffic for set-up.
std::vector<serve::Request> warmup_log(const Workload& w,
                                       const serve::DiagnosticsService& svc,
                                       std::size_t n, std::uint64_t first_id) {
  std::vector<serve::Request> log =
      serve::synthesize_traffic(traffic(w, n, 0xfeed), svc);
  for (serve::Request& r : log) {
    r.id += first_id;
    r.session.tenant += 1000;
    r.time_h = 0.0;
  }
  return log;
}

struct Context {
  const Workload& w;
  std::uint64_t seed;
  double seconds;
  bool traced;
  std::string out_dir;
  std::size_t cpus;
  std::size_t workers;  ///< replay parallelism or live scheduler workers
  SpanLedger& ledger;
};

/// Build one deployment. `live_slots` sizes the live sink (log + warm-up).
std::unique_ptr<Deployment> set_up(const Context& ctx,
                                   std::size_t live_slots,
                                   std::size_t warm_first_id) {
  const Workload& w = ctx.w;
  auto d = std::make_unique<Deployment>();
  const serve::ServiceConfig config = service_config(w);
  d->store = std::make_unique<quant::CalibrationStore>(campaign_config());
  for (bio::TargetId target : w.panel) {
    const Clock::time_point t0 = Clock::now();
    {
      Scope span(ctx.ledger, "quant.campaign", 0);
      d->store->quantifier(
          target, quant::default_protocol_for(d->store->config(), target));
    }
    d->campaign_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
  }

  Scope build(ctx.ledger, "serve.build", 0);
  if (w.mode == Mode::kShardedReplay) {
    serve::ShardClusterConfig cluster_config;
    cluster_config.router.shards = 2;
    d->cluster = std::make_unique<serve::ShardCluster>(*d->store, config,
                                                       cluster_config);
    const std::vector<serve::Request> warm =
        warmup_log(w, d->cluster->shard(0), 2 * ctx.workers, 0);
    d->cluster->replay(warm, ctx.workers);
    return d;
  }

  d->service = std::make_unique<serve::DiagnosticsService>(*d->store, config);
  if (w.mode == Mode::kReplay) {
    const std::vector<serve::Request> warm =
        warmup_log(w, *d->service, 2 * ctx.workers, 0);
    serve::Scheduler(*d->service).replay(warm, ctx.workers);
    return d;
  }

  // Live: observability attached, one draining subscriber, workers up.
  d->trace = std::make_unique<obs::TraceRecorder>();
  d->metrics = std::make_unique<obs::MetricsRegistry>();
  d->bus = std::make_unique<obs::TelemetryBus>();
  d->service->set_trace(d->trace.get());
  d->service->set_metrics(d->metrics.get());
  obs::SubscriberConfig sub_config;
  sub_config.name = "drain";
  sub_config.capacity = 1u << 16;
  sub_config.policy = obs::OverflowPolicy::kDropOldest;
  d->drain = std::thread([sub = d->bus->subscribe(sub_config), dep = d.get(),
                          traced = ctx.traced] {
    obs::Frame frame;
    std::vector<std::uint8_t> bytes;
    while (sub->pop(frame)) {
      if (!traced) continue;
      bytes.clear();
      const Clock::time_point t0 = Clock::now();
      obs::encode_frame(frame, bytes);
      dep->encode_us.push_back(1e6 * seconds_between(t0, Clock::now()));
    }
  });
  serve::SchedulerConfig sched_config;
  sched_config.queue.capacity = 8192;
  sched_config.queue.stat_reserve = 64;
  sched_config.workers = ctx.workers;
  d->scheduler =
      std::make_unique<serve::Scheduler>(*d->service, sched_config);
  d->scheduler->set_trace(d->trace.get());
  d->scheduler->set_metrics(d->metrics.get());
  d->scheduler->set_stream(d->bus.get());
  d->sink = std::make_unique<BenchSink>(live_slots);
  d->scheduler->start(d->sink.get());
  const std::vector<serve::Request> warm =
      warmup_log(w, *d->service, 8 * ctx.workers, warm_first_id);
  for (const serve::Request& r : warm) d->scheduler->submit_wait(r);
  while (d->sink->received() < warm.size()) std::this_thread::yield();
  return d;
}

// ------------------------------------------------------------------ results

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< rejected + thrown + mismatched
  std::uint64_t mismatched = 0;  ///< output-check failures alone
  std::vector<std::string> invalid;  ///< run-validity violations
  std::vector<Metric> metrics;
  std::vector<Metric> extra;  ///< printed, not part of the JSON result
};

/// What one timed phase produced, whatever the workload.
struct Timed {
  double wall_s = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t thrown = 0;
  std::uint64_t mismatched = 0;
  std::vector<double> latency_ms;       ///< one per sent request
  std::vector<double> stat_latency_ms;  ///< stat requests only
  std::vector<double> quant_err_pct;
  std::vector<serve::Request> ledger_requests;  ///< for the traced split
  std::vector<serve::Response> csv_responses;   ///< for the sink probe
  std::uint64_t measurements = 0;               ///< sum over sent requests
  std::uint64_t logs = 0;
  // replay: requests kept for the fresh-service check
  std::vector<std::pair<serve::Request, serve::Response>> verify;
  serve::MergeStats merge{};
  // live
  std::vector<double> lag_ms, queue_wait_ms, service_ms, gap_ms;
  double service_s = 0.0, latency_s = 0.0;  ///< sums over answered requests
  std::uint64_t epoch_builds_needed = 0;
};

void add_quant_errors(const serve::Response& r, std::vector<double>& out) {
  for (const serve::ChannelResult& c : r.channels) {
    if (c.truth_mM > 0.0) {
      out.push_back(100.0 * std::fabs(c.estimate.value - c.truth_mM) /
                    c.truth_mM);
    }
  }
}

// ------------------------------------------------------------ replay phase

Timed run_replay(const Context& ctx, Deployment& d) {
  Timed t;
  const Workload& w = ctx.w;
  const serve::DiagnosticsService& reference =
      d.cluster ? d.cluster->shard(0) : *d.service;
  std::unique_ptr<serve::Scheduler> scheduler;
  if (d.service) scheduler = std::make_unique<serve::Scheduler>(*d.service);

  // Replay whole logs until the time is up and the reported percentiles
  // have their ten samples beyond (p99 overall, p90 of stat requests).
  for (std::uint64_t index = 0;; ++index) {
    const bool enough =
        t.wall_s >= ctx.seconds && index >= kQuantLogs &&
        perfbench::percentile_supported(t.latency_ms.size(), 99.0) &&
        perfbench::percentile_supported(t.stat_latency_ms.size(), 90.0);
    if (enough) break;
    const std::vector<serve::Request> log = serve::synthesize_traffic(
        traffic(w, kReplayLogRequests, log_seed(ctx.seed, index)), reference);

    std::vector<serve::Response> responses;
    bool threw = false;
    const Clock::time_point t0 = Clock::now();
    try {
      Scope span(ctx.ledger, d.cluster ? "serve.cluster_replay"
                                       : "serve.replay",
                 index);
      if (d.cluster) {
        serve::ShardedReplayResult result =
            d.cluster->replay(log, ctx.workers);
        t.merge.delivered += result.merge.delivered;
        t.merge.duplicates_seen += result.merge.duplicates_seen;
        responses = std::move(result.responses);
      } else {
        responses = scheduler->replay(log, ctx.workers);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "replay of log %llu threw: %s\n",
                   static_cast<unsigned long long>(index), e.what());
      threw = true;
    }
    const double wall = seconds_between(t0, Clock::now());
    t.wall_s += wall;
    ++t.logs;
    t.sent += log.size();

    const bool shaped = !threw && responses.size() == log.size();
    for (std::size_t i = 0; i < log.size(); ++i) {
      const bool answered = shaped && responses[i].request_id == log[i].id;
      if (!answered) {
        ++(threw ? t.thrown : t.mismatched);
      } else {
        ++t.completed;
        if (index < kQuantLogs) add_quant_errors(responses[i], t.quant_err_pct);
      }
      const double ms = answered ? 1e3 * wall : kMiss;
      t.latency_ms.push_back(ms);
      if (log[i].priority == serve::Priority::kStat) {
        t.stat_latency_ms.push_back(ms);
      }
      t.measurements += measurements_of(log[i], w.panel.size());
    }
    if (shaped) {
      const std::size_t stride = log.size() / kVerifyPerLog;
      for (std::size_t k = 0; k < kVerifyPerLog; ++k) {
        const std::size_t i = (k * stride + index) % log.size();
        t.verify.emplace_back(log[i], responses[i]);
      }
    }
    if (index == 0) {
      t.ledger_requests = log;
      t.csv_responses = std::move(responses);
    }
  }
  return t;
}

// -------------------------------------------------------------- live phase

/// One open-loop send of a log: when each request was due, whether it was
/// admitted, and how late the generator sent it.
struct Sent {
  Clock::time_point start;
  std::vector<Clock::time_point> due;
  std::vector<std::uint8_t> accepted;
  std::vector<double> lag_ms;
};

/// Send `log` on an open-loop Poisson schedule conditioned on its count:
/// log.size() uniform send offsets over `seconds`, sorted.
Sent send_open_loop(const Context& ctx, Deployment& d,
                    const std::vector<serve::Request>& log, double seconds,
                    std::uint64_t schedule_seed) {
  const std::size_t n = log.size();
  std::vector<double> offset_s(n);
  std::mt19937_64 rng(schedule_seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  std::uniform_real_distribution<double> u(0.0, seconds);
  for (double& o : offset_s) o = u(rng);
  std::sort(offset_s.begin(), offset_s.end());

  Sent sent;
  sent.due.resize(n);
  sent.accepted.assign(n, 0);
  sent.lag_ms.reserve(n);
  sent.start = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < n; ++i) {
    sent.due[i] = sent.start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(offset_s[i]));
    // The generator spins on its own core: a sleeping thread's wake-up on
    // a busy host lands milliseconds late (lag p99 ~0.7 ms vs ~0.01 ms
    // measured), which would then be charged to every latency.
    while (Clock::now() < sent.due[i]) {
    }
    sent.lag_ms.push_back(
        1e3 * seconds_between(sent.due[i], Clock::now()));
    Scope span(ctx.ledger, "serve.submit", log[i].id);
    sent.accepted[i] =
        d.scheduler->submit(log[i]) == serve::Admission::kAccepted ? 1 : 0;
  }
  return sent;
}

/// Untimed warm-up window before the measured one: kWarmupSeconds of the
/// workload's own kind of traffic on sessions the measured log never uses.
void warm_up(const Context& ctx, Deployment& d, std::size_t first_id) {
  if (d.scheduler) {
    const auto n = static_cast<std::size_t>(
        std::llround(kLiveRateRps * kWarmupSeconds));
    const std::vector<serve::Request> warm =
        warmup_log(ctx.w, *d.service, n, first_id);
    const std::size_t before = d.sink->received();
    const Sent sent =
        send_open_loop(ctx, d, warm, kWarmupSeconds, ctx.seed + 1);
    const auto admitted = static_cast<std::size_t>(
        std::count(sent.accepted.begin(), sent.accepted.end(), 1));
    while (d.sink->received() < before + admitted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return;
  }
  const serve::DiagnosticsService& reference =
      d.cluster ? d.cluster->shard(0) : *d.service;
  const std::vector<serve::Request> warm =
      warmup_log(ctx.w, reference, kReplayLogRequests, 0);
  const Clock::time_point t0 = Clock::now();
  while (seconds_between(t0, Clock::now()) < kWarmupSeconds) {
    if (d.cluster) {
      d.cluster->replay(warm, ctx.workers);
    } else {
      serve::Scheduler(*d.service).replay(warm, ctx.workers);
    }
  }
}

Timed run_live(const Context& ctx, Deployment& d,
               const std::vector<serve::Request>& log) {
  Timed t;
  const std::size_t n = log.size();
  const Sent sent = send_open_loop(ctx, d, log, ctx.seconds, ctx.seed);
  const Clock::time_point last_sent = Clock::now();
  d.scheduler->drain_and_stop();
  t.sent = n;
  t.lag_ms = sent.lag_ms;
  const std::vector<Clock::time_point>& due = sent.due;
  const std::vector<std::uint8_t>& accepted = sent.accepted;
  const Clock::time_point start = sent.start;

  Clock::time_point last_arrival = last_sent;
  std::set<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>> epochs;
  for (std::size_t i = 0; i < n; ++i) {
    const serve::Request& r = log[i];
    t.measurements += measurements_of(r, ctx.w.panel.size());
    const bool answered = d.sink->seen(r.id);
    if (!accepted[i]) ++t.rejected;
    double ms = kMiss;
    if (answered) {
      ++t.completed;
      last_arrival = std::max(last_arrival, d.sink->arrival(r.id));
      ms = 1e3 * seconds_between(due[i], d.sink->arrival(r.id));
      const serve::RequestTelemetry& tel = d.sink->telemetry(r.id);
      t.queue_wait_ms.push_back(1e3 * tel.queue_wait_s);
      t.service_ms.push_back(1e3 * tel.service_time_s);
      t.gap_ms.push_back(ms - 1e3 * (tel.queue_wait_s + tel.service_time_s));
      t.service_s += tel.service_time_s;
      t.latency_s += 1e-3 * ms;
      add_quant_errors(d.sink->response(r.id), t.quant_err_pct);
      const std::uint32_t epoch = d.sink->response(r.id).calibration_epoch;
      if (epoch >= 1) {
        const std::uint64_t site = serve::hash_of(r.session);
        if (r.kind == serve::RequestKind::kPanelScan) {
          for (std::uint32_t c = 0; c < ctx.w.panel.size(); ++c) {
            epochs.emplace(site, c, epoch);
          }
        } else {
          epochs.emplace(site, r.channel, epoch);
        }
      }
    } else if (accepted[i]) {
      ++t.mismatched;  // accepted but never answered
    }
    t.latency_ms.push_back(ms);
    if (r.priority == serve::Priority::kStat) t.stat_latency_ms.push_back(ms);
  }
  t.mismatched += d.sink->unexpected();
  t.epoch_builds_needed = epochs.size();
  t.wall_s = seconds_between(start, last_arrival);
  t.logs = 1;

  const std::size_t stride = std::max<std::size_t>(1, n / kVerifyLive);
  for (std::size_t i = 0; i < n; i += stride) {
    if (d.sink->seen(log[i].id)) {
      t.verify.emplace_back(log[i], d.sink->response(log[i].id));
    }
  }
  t.ledger_requests.assign(
      log.begin(),
      log.begin() + static_cast<long>(n / live_cohorts(ctx.seconds)));
  for (std::size_t i = 0; i < n; ++i) {
    if (d.sink->seen(log[i].id)) {
      t.csv_responses.push_back(d.sink->response(log[i].id));
    }
  }
  return t;
}

/// Output check: each kept (request, response) pair against a fresh
/// service executing the requests sequentially, in log order.
std::uint64_t verify_fresh(const Context& ctx, Deployment& d,
                           const Timed& t) {
  serve::DiagnosticsService fresh(*d.store, service_config(ctx.w));
  std::uint64_t bad = 0;
  for (const auto& [request, response] : t.verify) {
    try {
      if (!same_response(fresh.execute(request), response)) ++bad;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fresh execute threw: %s\n", e.what());
      ++bad;
    }
  }
  return bad;
}

// ----------------------------------------------------------- traced ledger

/// Outside-in recomposition of one request's measurements through the
/// layers' public functions, each call under its own span. Mirrors
/// DiagnosticsService::execute; epoch >= 1 quantifiers come from
/// CalibrationStore::recalibrate, cached per (session, channel, epoch)
/// like the service's warm registry.
class Recomposer {
 public:
  Recomposer(const Context& ctx, quant::CalibrationStore& store,
             const serve::DiagnosticsService& service)
      : ctx_(ctx),
        store_(store),
        service_(service),
        config_(service.config()),
        engine_([&] {
          sim::EngineConfig engine_config;
          engine_config.seed = service.config().engine_seed;
          return engine_config;
        }()) {
    for (bio::TargetId target : config_.panel) {
      protocols_.push_back(
          quant::default_protocol_for(store_.config(), target));
      factory_.push_back(&store_.quantifier(target, protocols_.back()));
    }
  }

  /// True when every recomposed read matches `served` bit for bit.
  bool matches(const serve::Request& r, const serve::Response& served) {
    Scope root(ctx_.ledger, "ledger.recompose", r.id);
    const std::uint64_t site = serve::hash_of(r.session);
    const double age = std::max(
        0.0, (r.time_h - config_.sensor_install_h) / 24.0);
    const std::uint32_t epoch = service_.epoch_for(age);
    const std::uint64_t lease = service_.lease_base(r.id);
    bool ok = served.calibration_epoch == epoch &&
              served.channels.size() ==
                  (r.kind == serve::RequestKind::kPanelScan
                       ? config_.panel.size()
                       : 1);
    if (!ok) return false;

    auto read = [&](std::uint32_t c, double conc, std::uint64_t run,
                    const serve::ChannelResult& out) {
      const double resp = measure(r.id, site, c, age, conc, run);
      const quant::Quantifier& q = quantifier(r.id, site, c, epoch);
      quant::ConcentrationEstimate est;
      {
        Scope span(ctx_.ledger, "quant.quantify", r.id);
        est = q.quantify(resp);
      }
      return same_bits(resp, out.response) && same_estimate(est, out.estimate);
    };

    switch (r.kind) {
      case serve::RequestKind::kPanelScan:
        for (std::uint32_t c = 0; c < config_.panel.size(); ++c) {
          ok = read(c, r.concentrations_mM[c], lease + c, served.channels[c]) &&
               ok;
        }
        break;
      case serve::RequestKind::kQuantifiedRead:
        ok = read(r.channel, r.concentrations_mM[0], lease,
                  served.channels[0]);
        break;
      case serve::RequestKind::kQcCheck: {
        const quant::Quantifier& q = quantifier(r.id, site, r.channel, epoch);
        const double qc_mM =
            q.c_low() + config_.qc_fraction * (q.c_high() - q.c_low());
        const double sigma = std::max(q.response_sigma(), 1e-15);
        const double blank = measure(r.id, site, r.channel, age, 0.0, lease);
        ok = read(r.channel, qc_mM, lease + 1, served.channels[0]);
        ok = ok && same_bits((blank - q.blank_mean()) / sigma,
                             served.qc_blank_residual) &&
             same_bits((served.channels[0].response -
                        util::evaluate(q.fit(), qc_mM)) /
                           sigma,
                       served.qc_standard_residual);
        break;
      }
    }
    return ok;
  }

 private:
  double measure(std::uint64_t id, std::uint64_t site, std::uint32_t c,
                 double age, double conc, std::uint64_t run) {
    const bio::TargetId target = config_.panel[c];
    fault::SensorState sensor;
    {
      Scope span(ctx_.ledger, "fault.sensor_state", id);
      sensor = config_.degradation.state_at(age, fault::SensorSite{site, c});
    }
    bio::ProbePtr probe;
    {
      Scope span(ctx_.ledger, "bio.probe_build", id);
      probe = quant::make_campaign_probe(store_.config(), target);
      probe->set_bulk_concentration(bio::to_string(target), conc);
    }
    std::unique_ptr<afe::AnalogFrontEnd> frontend;
    {
      Scope span(ctx_.ledger, "afe.frontend_build", id);
      frontend = std::make_unique<afe::AnalogFrontEnd>(
          quant::campaign_frontend_config(
              store_.config(), config_.engine_seed +
                                   serve::kServeFrontendSeedDomain +
                                   run * serve::kServeSeedStride));
    }
    const sim::Channel channel{probe.get(), nullptr, sensor};
    const sim::ChannelProtocol& protocol = protocols_[c];
    if (std::holds_alternative<sim::ChronoamperometryProtocol>(protocol)) {
      sim::Trace trace;
      {
        Scope span(ctx_.ledger, "sim.ca_run", id);
        trace = engine_.run_chronoamperometry_seeded(
            run, channel, std::get<sim::ChronoamperometryProtocol>(protocol),
            *frontend);
      }
      Scope span(ctx_.ledger, "quant.response", id);
      return quant::panel_response(target, trace, sim::CvCurve{});
    }
    sim::CvCurve curve;
    {
      Scope span(ctx_.ledger, "sim.cv_run", id);
      curve = engine_.run_cyclic_voltammetry_seeded(
          run, channel, std::get<sim::CyclicVoltammetryProtocol>(protocol),
          *frontend);
    }
    Scope span(ctx_.ledger, "quant.response", id);
    return quant::panel_response(target, sim::Trace{}, curve);
  }

  const quant::Quantifier& quantifier(std::uint64_t id, std::uint64_t site,
                                      std::uint32_t c, std::uint32_t epoch) {
    if (epoch == 0) return *factory_[c];
    const auto key = std::make_tuple(site, c, epoch);
    auto it = epochs_.find(key);
    if (it == epochs_.end()) {
      const double boundary_age =
          static_cast<double>(epoch) * config_.recalibration_interval_days;
      const std::uint64_t block =
          serve::kServeRecalDomain +
          (((site % serve::kServeSessionSlots) * serve::kMaxServeChannels +
            c) *
               serve::kServeEpochSlots +
           epoch) *
              quant::CalibrationStore::kRunsPerCampaignBlock;
      fault::SensorState sensor;
      {
        Scope span(ctx_.ledger, "fault.sensor_state", id);
        sensor = config_.degradation.state_at(boundary_age,
                                              fault::SensorSite{site, c});
      }
      Scope span(ctx_.ledger, "quant.recal", id);
      it = epochs_
               .emplace(key, std::make_unique<quant::Calibration>(
                                 store_.recalibrate(config_.panel[c],
                                                    protocols_[c], sensor,
                                                    block)))
               .first;
    }
    return it->second->quantifier;
  }

  const Context& ctx_;
  quant::CalibrationStore& store_;
  const serve::DiagnosticsService& service_;
  const serve::ServiceConfig& config_;
  sim::MeasurementEngine engine_;
  std::vector<sim::ChannelProtocol> protocols_;
  std::vector<const quant::Quantifier*> factory_;
  std::map<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>,
           std::unique_ptr<quant::Calibration>>
      epochs_;
};

/// Per-layer figures derived from the ledger's spans.
struct SpanStats {
  std::map<std::string, std::vector<double>> durations_ms;  ///< by name
  std::map<std::string, double> layer_self_s;  ///< under recompose roots
  double execute_s = 0.0;
};

SpanStats summarise(const SpanLedger& ledger) {
  const std::vector<perfbench::Span> spans = ledger.spans();
  const std::vector<double> self = perfbench::self_times(spans);
  std::map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  SpanStats s;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& sp = spans[i];
    s.durations_ms[sp.name].push_back(1e3 * (sp.end_s - sp.start_s));
    if (sp.name == "serve.execute") s.execute_s += sp.end_s - sp.start_s;
    // Attribute the span's self time to its layer when it sits under a
    // recompose root (the recomposed request path).
    std::uint64_t up = sp.parent;
    bool under_recompose = false;
    while (up != 0) {
      const perfbench::Span& p = spans[index_of.at(up)];
      if (p.name == "ledger.recompose") {
        under_recompose = true;
        break;
      }
      up = p.parent;
    }
    if (under_recompose) {
      s.layer_self_s[perfbench::layer_of(sp.name)] += self[i];
    }
  }
  return s;
}

// ---------------------------------------------------------------------- run

std::string json_number(double v) {
  if (!std::isfinite(v)) v = kMissMs;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// The live workload's surfaces, read once its scheduler has drained.
struct LiveCounts {
  serve::QueueStats queue{};
  serve::RegistryStats registry{};
  std::uint64_t frames = 0;
  std::uint64_t dropped = 0;
  std::size_t trace_events = 0;
  std::size_t metric_series = 0;
};

LiveCounts read_live_counts(Deployment& d) {
  LiveCounts c;
  c.queue = d.scheduler->queue_stats();
  c.registry = d.service->sessions().stats();
  d.bus->close();
  d.drain.join();
  c.frames = d.bus->frames_published();
  for (const obs::SubscriberStats& s : d.bus->subscriber_stats()) {
    c.dropped += s.dropped;
  }
  c.trace_events = d.trace->size();
  c.metric_series = d.metrics->size();
  return c;
}

/// Summed wall time of executing `requests` on a fresh service, bare or
/// with a trace recorder and a metrics registry attached.
double execute_seconds(Deployment& d, const serve::ServiceConfig& config,
                       std::span<const serve::Request> requests,
                       bool observed) {
  serve::DiagnosticsService svc(*d.store, config);
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  if (observed) {
    svc.set_trace(&trace);
    svc.set_metrics(&metrics);
  }
  double total = 0.0;
  for (const serve::Request& r : requests) {
    const Clock::time_point t0 = Clock::now();
    svc.execute(r);
    total += seconds_between(t0, Clock::now());
  }
  return total;
}

/// The traced run's second half: recompose the ledger sample layer by
/// layer, probe the cluster, sink and observability costs, and report the
/// per-layer metrics.
void add_traced_metrics(const Context& ctx, Deployment& d, const Timed& t,
                        const LiveCounts& live, Outcome& out) {
  const Workload& w = ctx.w;
  const Clock::time_point ledger_start = Clock::now();
  const serve::ServiceConfig config = service_config(w);
  std::vector<serve::Request> sample = t.ledger_requests;
  if (w.mode != Mode::kLive && sample.size() > kLedgerReplaySample) {
    sample.resize(kLedgerReplaySample);
  }

  serve::DiagnosticsService bare(*d.store, config);
  Recomposer recomposer(ctx, *d.store, bare);
  std::uint64_t recompose_bad = 0;
  for (const serve::Request& r : sample) {
    serve::Response response;
    {
      Scope span(ctx.ledger, "serve.execute", r.id);
      response = bare.execute(r);
    }
    if (!recomposer.matches(r, response)) ++recompose_bad;
  }
  if (recompose_bad != 0) {
    std::fprintf(stderr, "%llu recomposed request(s) differ from the service\n",
                 static_cast<unsigned long long>(recompose_bad));
  }
  out.mismatched += recompose_bad;
  out.failed += recompose_bad;

  const std::span<const serve::Request> taxed(
      sample.data(), std::min(sample.size(), kTaxSample));
  const double bare_s = execute_seconds(d, config, taxed, false);
  const double observed_s = execute_seconds(d, config, taxed, true);

  double cluster_self_ms = 0.0;
  if (d.cluster) {
    const std::span<const serve::Request> probe(
        sample.data(), std::min(sample.size(), kClusterProbeRequests));
    const double exec_s = execute_seconds(d, config, probe, false);
    const Clock::time_point t0 = Clock::now();
    d.cluster->replay(probe, 1);
    cluster_self_ms = 1e3 * (seconds_between(t0, Clock::now()) - exec_s);
  }

  double csv_ms = 0.0;
  {
    const std::string path = ctx.out_dir + "/responses-" + w.name + ".csv";
    const Clock::time_point t0 = Clock::now();
    {
      Scope span(ctx.ledger, "serve.sink_csv", 0);
      serve::write_responses_csv(t.csv_responses, path);
    }
    csv_ms = 1e3 * seconds_between(t0, Clock::now());
    std::filesystem::remove(path);
  }

  // Span-recording cost, from a scratch ledger of empty spans.
  double span_cost_s = 0.0;
  {
    SpanLedger scratch(true);
    constexpr int kProbeSpans = 20000;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kProbeSpans; ++i) Scope span(scratch, "x.y", 0);
    span_cost_s = seconds_between(t0, Clock::now()) / kProbeSpans;
  }
  const double traced_s =
      t.wall_s + seconds_between(ledger_start, Clock::now());

  const SpanStats s = summarise(ctx.ledger);
  auto dur = [&](const char* name, double p, double scale) {
    const auto it = s.durations_ms.find(name);
    return it == s.durations_ms.end() ? 0.0 : scale * pct(it->second, p);
  };
  auto self_share = [&](const char* layer) {
    const auto it = s.layer_self_s.find(layer);
    return it == s.layer_self_s.end() || s.execute_s <= 0.0
               ? 0.0
               : it->second / s.execute_s;
  };
  double layer_sum_s = 0.0;
  for (const auto& [layer, self_s] : s.layer_self_s) layer_sum_s += self_s;
  const double layer_sum_share =
      s.execute_s > 0.0 ? layer_sum_s / s.execute_s : 0.0;
  if (std::fabs(layer_sum_share - 1.0) > kLayerSumTolerance) {
    out.invalid.push_back("serve.layer_sum_share " +
                          json_number(layer_sum_share) + " outside 1 +- " +
                          json_number(kLayerSumTolerance));
  }
  double campaign_ms = 0.0;
  for (double ms : d.campaign_ms) campaign_ms += ms;
  campaign_ms /= static_cast<double>(d.campaign_ms.size());
  auto count = [](auto n) { return static_cast<double>(n); };
  const serve::QueueStats& q = live.queue;

  out.metrics = {
      {"bio.probe_build_ms.p50", dur("bio.probe_build", 50, 1.0), "ms"},
      {"bio.probe_build_ms.p99", dur("bio.probe_build", 99, 1.0), "ms"},
      {"bio.probe_builds_per_request", count(t.measurements) / count(t.sent),
       "count"},
      {"bio.self_share", self_share("bio"), "ratio"},
      {"afe.frontend_build_us.p50", dur("afe.frontend_build", 50, 1e3), "us"},
      {"afe.self_share", self_share("afe"), "ratio"},
      {"sim.ca_run_ms.p50", dur("sim.ca_run", 50, 1.0), "ms"},
      {"sim.cv_run_ms.p50", dur("sim.cv_run", 50, 1.0), "ms"},
      {"sim.self_share", self_share("sim"), "ratio"},
      {"fault.self_share", self_share("fault"), "ratio"},
      {"quant.response_us.p50", dur("quant.response", 50, 1e3), "us"},
      {"quant.quantify_us.p50", dur("quant.quantify", 50, 1e3), "us"},
      {"quant.campaign_ms", campaign_ms, "ms"},
      {"quant.recal_ms.p50", dur("quant.recal", 50, 1.0), "ms"},
      {"quant.epoch_builds_needed", count(t.epoch_builds_needed), "count"},
      {"quant.recal_waste",
       count(live.registry.calibrations_built) - count(t.epoch_builds_needed),
       "count"},
      {"quant.self_share", self_share("quant"), "ratio"},
      {"serve.execute_ms.p50", dur("serve.execute", 50, 1.0), "ms"},
      {"serve.execute_ms.p99", dur("serve.execute", 99, 1.0), "ms"},
      {"serve.layer_sum_share", layer_sum_share, "ratio"},
      {"serve.queue_wait_ms.p50", pct(t.queue_wait_ms, 50), "ms"},
      {"serve.queue_wait_ms.p99", pct(t.queue_wait_ms, 99), "ms"},
      {"serve.service_time_ms.p50", pct(t.service_ms, 50), "ms"},
      {"serve.service_time_ms.p99", pct(t.service_ms, 99), "ms"},
      {"serve.dispatch_gap_ms.p99", pct(t.gap_ms, 99), "ms"},
      {"serve.service_latency_share",
       t.latency_s > 0.0 ? t.service_s / t.latency_s : 0.0, "ratio"},
      {"serve.queue_high_water", count(q.high_water), "count"},
      {"serve.rejected",
       count(q.rejected_full + q.shed + q.rejected_closed + q.timed_out),
       "count"},
      {"serve.cluster_self_ms", cluster_self_ms, "ms"},
      {"serve.merge.delivered", count(t.merge.delivered), "count"},
      {"serve.merge.duplicates", count(t.merge.duplicates_seen), "count"},
      {"serve.sink_csv_ms", csv_ms, "ms"},
      {"obs.frames_published", count(live.frames), "count"},
      {"obs.frames_dropped", count(live.dropped), "count"},
      {"obs.trace_events", count(live.trace_events), "count"},
      {"obs.metric_series", count(live.metric_series), "count"},
      {"obs.encode_us.p50", pct(d.encode_us, 50), "us"},
      {"obs.tax_share", bare_s > 0.0 ? observed_s / bare_s - 1.0 : 0.0,
       "ratio"},
      {"loadgen.lag_p99_ms", pct(t.lag_ms, 99), "ms"},
      {"trace.overhead_share",
       count(ctx.ledger.size()) * span_cost_s / traced_s, "ratio"},
  };
  out.extra.push_back({"ledger_sample", count(sample.size()), "count"});
  out.extra.push_back({"ledger_spans", count(ctx.ledger.size()), "count"});
  ctx.ledger.write_jsonl(ctx.out_dir + "/spans-" + w.name + "-seed" +
                         std::to_string(ctx.seed) + ".jsonl");
}

int run(const Context& ctx) {
  const Workload& w = ctx.w;
  Outcome out;

  // Thread budget: replay pools use every CPU; live runs one generator, the
  // scheduler workers and one drain thread.
  const std::size_t budget =
      w.mode == Mode::kLive ? ctx.workers + 2 : ctx.workers;
  if (budget > ctx.cpus) {
    out.invalid.push_back("thread budget " + std::to_string(budget) +
                          " exceeds " + std::to_string(ctx.cpus) + " CPUs");
  }

  // Live log first: its size sizes the sink. Traffic synthesis reads the
  // panel's calibrated windows from a service, so a throwaway store and
  // service provide them here, outside the timed set-up.
  std::vector<serve::Request> live;
  if (w.mode == Mode::kLive) {
    quant::CalibrationStore store(campaign_config());
    serve::DiagnosticsService service(store, service_config(w));
    const std::size_t cohorts = live_cohorts(ctx.seconds);
    const auto per = static_cast<std::size_t>(std::llround(
        kLiveRateRps * ctx.seconds / static_cast<double>(cohorts)));
    live = live_log(w, service, cohorts, per, ctx.seed);
  }
  // Sink slots: the measured log, then set-up's warm-up requests, then the
  // warm-up window's.
  const std::size_t warm_first_id = live.size();
  const std::size_t window_first_id = warm_first_id + 8 * ctx.workers;
  const std::size_t live_slots =
      window_first_id +
      static_cast<std::size_t>(std::llround(kLiveRateRps * kWarmupSeconds));

  // Set-up, several times; the last deployment serves the timed phase.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetupRepeats; ++i) {
    d.reset();
    const Clock::time_point t0 = Clock::now();
    d = set_up(ctx, live_slots, warm_first_id);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  warm_up(ctx, *d, window_first_id);
  const double cpu_start = platform_cpu_seconds();
  Timed t = w.mode == Mode::kLive ? run_live(ctx, *d, live)
                                  : run_replay(ctx, *d);
  t.mismatched += verify_fresh(ctx, *d, t);

  LiveCounts live_counts;
  if (w.mode == Mode::kLive) {
    live_counts = read_live_counts(*d);  // joins the drain thread
    const double lag = pct(t.lag_ms, 99.0);
    if (lag > kLagLimitMs) {
      out.invalid.push_back("generator lag p99 " + json_number(lag) +
                            " ms over the " + json_number(kLagLimitMs) +
                            " ms limit");
    }
  }

  // Worker, pool and drain CPU of the timed phase; the fresh-service check
  // above ran on this thread and is not counted.
  const double platform_cpu_s = platform_cpu_seconds() - cpu_start;

  out.attempted = t.sent;
  out.mismatched = t.mismatched;
  out.failed = t.rejected + t.thrown + t.mismatched;
  if (!perfbench::percentile_supported(t.latency_ms.size(), 99.0) ||
      !perfbench::percentile_supported(t.stat_latency_ms.size(), 90.0)) {
    out.invalid.push_back("too few samples for p99 / stat p90");
  }

  // Printed in the table only: failed_frac rides in the result line as
  // failed / attempted, and the latency percentiles swing too far between
  // runs on direct-live to carry a regression bound (README.md,
  // Steadiness).
  out.extra = {
      {"failed_frac",
       static_cast<double>(out.failed) / static_cast<double>(t.sent),
       "ratio"},
      {"latency_p50_ms", pct(t.latency_ms, 50.0), "ms"},
      {"latency_p99_ms", pct(t.latency_ms, 99.0), "ms"},
      {"stat_latency_p90_ms", pct(t.stat_latency_ms, 90.0), "ms"},
      {"requests_sent", static_cast<double>(t.sent), "count"},
      {"logs_replayed", static_cast<double>(t.logs), "count"},
      {"timed_phase_s", t.wall_s, "s"},
      {"fresh_checks", static_cast<double>(t.verify.size()), "count"},
  };
  if (ctx.traced) {
    add_traced_metrics(ctx, *d, t, live_counts, out);
  } else {
    out.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"throughput_rps", static_cast<double>(t.completed) / t.wall_s,
         "1/s"},
        {"cpu_ms_per_request",
         1e3 * platform_cpu_s / static_cast<double>(t.completed), "ms"},
        {"within_slo_frac", perfbench::share_within(t.latency_ms, w.slo_ms),
         "ratio"},
        {"quant_err_p50_pct", median(t.quant_err_pct), "%"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  }

  // ---- report ----------------------------------------------------------
  std::printf("workload %s  seed %llu  cpus %zu  workers %zu  trace %d\n",
              w.name, static_cast<unsigned long long>(ctx.seed), ctx.cpus,
              ctx.workers, ctx.traced ? 1 : 0);
  for (const Metric& m : out.extra) {
    std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : out.metrics) {
    std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& why : out.invalid) {
    std::fprintf(stderr, "invalid run: %s\n", why.c_str());
  }
  if (!out.invalid.empty()) return 3;

  std::string json = "{\"correct\": ";
  json += out.mismatched == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.mismatched == 0 ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_dir = ".";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") workload = value;
      else if (key == "--seed") seed = std::stoull(value);
      else if (key == "--seconds") seconds = std::stod(value);
      else if (key == "--trace") traced = std::stoi(value) != 0;
      else if (key == "--out") out_dir = value;
      else return usage(("unknown option " + key).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in pairs");
  if (!(seconds > 0.0)) return usage("--seconds must be positive");
  const Workload* chosen = nullptr;
  for (const Workload& w : workloads()) {
    if (workload == w.name) chosen = &w;
  }
  if (chosen == nullptr) return usage(("unknown workload " + workload).c_str());

  const std::size_t cpus = cpu_count();
  const std::size_t workers =
      chosen->mode == Mode::kLive ? (cpus > 2 ? cpus - 2 : 1) : cpus;
  SpanLedger ledger(traced);
  const Context ctx{*chosen, seed, seconds, traced, out_dir, cpus, workers,
                    ledger};
  try {
    return run(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 4;
  }
}
