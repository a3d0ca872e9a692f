/// \file service.hpp
/// The diagnostics service engine: turns one serve::Request into one
/// serve::Response by running the virtual measurement stack -- degraded
/// sensor state, campaign-grade probe and front end, measurement engine,
/// quantifier -- exactly the way the calibration campaigns measured.
///
/// Determinism contract (the service-layer extension of the PR 2-4
/// guarantee): every response is a pure function of (request, service
/// configuration). Request `id` leases a disjoint block of
/// `run_ids_per_request` run ids in the serve domain (2^42, next to the QC
/// domain 2^40 and the scenario-recalibration domain 2^41), and every
/// stochastic input of the measurement -- engine noise realisation,
/// front-end noise stream, degradation state -- derives from that lease,
/// the session key hash or the request content. Nothing depends on
/// arrival order, queue state, worker identity or which requests ran
/// before, so a replayed request log is bitwise identical at parallelism
/// 1, N and hardware (tests/determinism).
///
/// Session warm state: repeated requests from one (tenant, patient,
/// device) reuse the session's calibration epochs through the
/// SessionRegistry. Epoch 0 is the factory campaign shared by every
/// session (cached in the CalibrationStore); epochs >= 1 are per-session
/// field recalibrations -- the scheduled-maintenance counterpart of the
/// scenario layer's adaptive recalibration -- built on the sensor's
/// degraded state at the epoch boundary from run-id blocks in the serve
/// recalibration domain (2^43) owned by (session hash, channel, epoch).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "fault/degradation.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"
#include "quant/calibration_store.hpp"
#include "serve/request.hpp"
#include "serve/session_registry.hpp"

namespace idp::serve {

/// Run-id domains of the service layer (see docs/ARCHITECTURE.md for the
/// full domain map).
inline constexpr std::uint64_t kServeRunDomain = 1ULL << 42;
inline constexpr std::uint64_t kServeRecalDomain = 1ULL << 43;

/// Seed-domain tag separating serve front-end noise streams from every
/// other consumer of the engine seed.
inline constexpr std::uint64_t kServeFrontendSeedDomain =
    0x243f6a8885a308d3ULL;

/// Odd-constant stride decorrelating neighbouring front-end seeds.
inline constexpr std::uint64_t kServeSeedStride = 0x9e3779b97f4a7c15ULL;

/// Upper bounds of the recalibration-block packing
/// (session-slot, channel, epoch) -> disjoint campaign block in the 2^43
/// domain. kSessionSlots * kMaxServeChannels * kEpochSlots campaign blocks
/// of 4096 ids fit below the next power-of-two domain.
inline constexpr std::uint64_t kServeSessionSlots = 1ULL << 20;
inline constexpr std::size_t kMaxServeChannels = 16;
inline constexpr std::uint32_t kServeEpochSlots = 8;

/// Service configuration: the monitored panel plus the policies every
/// response derives from.
struct ServiceConfig {
  /// Panel channel c measures panel[c] with the campaign's default
  /// protocol for that target. 1..kMaxServeChannels entries.
  std::vector<bio::TargetId> panel;

  /// Engine noise seed of the service deployment.
  std::uint64_t engine_seed = 4242;

  /// Registry shards (forwarded to SessionRegistry).
  std::size_t registry_shards = 16;

  /// Sensor aging across the service timeline; identity default keeps
  /// every sensor pristine (and epoch recalibrations then reproduce the
  /// factory curve statistics on fresh noise streams).
  fault::DegradationModel degradation{};

  /// Timeline instant sensors were installed [h]; a request at time_h sees
  /// sensor age (time_h - install) / 24 days, clamped to >= 0.
  double sensor_install_h = 0.0;

  /// Scheduled-maintenance recalibration cadence [days]. 0 disables field
  /// recalibration (every request uses the factory calibration, epoch 0).
  /// With a cadence, a request at age a uses epoch
  /// min(floor(a / cadence), kServeEpochSlots - 1).
  double recalibration_interval_days = 0.0;

  /// QC standard level as a fraction of each channel's calibrated window.
  double qc_fraction = 0.35;

  /// Run ids leased per request; must cover the widest request kind
  /// (panel width, or 2 for a QC check).
  std::size_t run_ids_per_request = 64;
};

/// One channel read a request needs.
struct PlannedRead {
  std::uint32_t channel = 0;
  double concentration_mM = 0.0;  ///< bulk concentration the probe sees
  std::uint64_t run_id = 0;       ///< from the request's lease
  double response = 0.0;          ///< raw scalar response, set by measure()
};

/// A request resolved to the measurements it needs, before any runs: the
/// output of DiagnosticsService::plan, the input of measure and finish.
struct RequestPlan {
  const Request* request = nullptr;  ///< the planned request (not owned)
  Session* session = nullptr;
  double age_days = 0.0;
  std::uint32_t epoch = 0;
  std::uint64_t lease = 0;
  /// Reads in measurement order: one per panel channel, the single read,
  /// or a QC check's blank then standard.
  std::vector<PlannedRead> reads;
};

/// The request -> response engine. Thread-safe: execute() may be called
/// concurrently from any number of workers (the registry and the store
/// handle their own locking; the engine is used through const seeded
/// calls only).
class DiagnosticsService {
 public:
  /// Binds the service to a calibration store. The store provides the
  /// campaign configuration (how to measure) and the factory quantifiers;
  /// the constructor builds any missing factory campaigns up front so
  /// serving never pays that cost.
  DiagnosticsService(quant::CalibrationStore& store, ServiceConfig config);

  const ServiceConfig& config() const { return config_; }
  std::size_t channel_count() const { return config_.panel.size(); }
  bio::TargetId target(std::size_t channel) const;

  /// Calibrated (invertible) concentration window of one channel [mM]
  /// under the factory calibration -- what traffic synthesis draws from.
  std::pair<double, double> calibrated_range_mM(std::size_t channel) const;

  /// First run id of a request's leased block.
  std::uint64_t lease_base(std::uint64_t request_id) const;

  /// Calibration epoch a request at this sensor age resolves to.
  std::uint32_t epoch_for(double sensor_age_days) const;

  /// Execute one request. Pure in the determinism sense (see file
  /// comment); mutates only the session registry's warm caches and
  /// counters, which are order-insensitive. The one-request case of the
  /// replay pipeline: plan, measure, finish into a private capture, then
  /// commit it to the attached recorder/registry.
  Response execute(const Request& request);

  // --- the three stages of execute(), for batched replay -------------------

  /// Throw std::invalid_argument unless `request` can be served: its kind's
  /// concentration count and channel, every concentration finite and
  /// >= 0, and an id inside the serve run-id domain (lease_base). Touches
  /// nothing, so a live scheduler calls it at admission.
  void validate(const Request& request) const;

  /// Validate a request and resolve it to its reads: session, sensor age,
  /// epoch, run-id lease and, for a QC check, the standard level of the
  /// active (possibly freshly built) epoch calibration. Emits no telemetry.
  /// `request` must outlive the plan.
  RequestPlan plan(const Request& request);

  /// Measure every read of `plans` in one engine run: compatible reads
  /// across requests step in lockstep lanes (sim::MeasurementEngine::
  /// run_measurements) over `parallelism` workers (0 = hardware). Each
  /// response is bitwise identical to measuring the request alone.
  void measure(std::span<RequestPlan* const> plans,
               std::size_t parallelism) const;

  /// Quantify a measured plan into its response, recording every span and
  /// metric of the request into `capture` in execute()'s order. Captured
  /// spans are pure functions of (request, configuration): epoch spans
  /// (kEpochSwap, kRecalibration) record for *every* request on the
  /// epoch, not just the cache-building winner, so which request carries
  /// them never depends on the thread schedule (exact duplicates collapse
  /// on commit and in TraceRecorder::sorted()).
  Response finish(const RequestPlan& plan, obs::TelemetryCapture& capture);

  SessionRegistry& sessions() { return registry_; }
  const SessionRegistry& sessions() const { return registry_; }

  // --- observability ---------------------------------------------------------

  /// Attach a trace recorder (nullptr = off). execute() then records
  /// kLeaseGrant, one kExecution per measured run, and kEpochSwap /
  /// kRecalibration spans for field-recalibration epochs. Every recorded
  /// field is a pure function of (request, configuration), so the sorted
  /// trace inherits the response determinism contract. A Scheduler or
  /// ShardCluster over this service commits its captures here too.
  void set_trace(obs::TraceRecorder* trace) { sink_.trace = trace; }

  /// Attach a metrics registry (nullptr = off): request / channel-read /
  /// estimate series under serve.service.* (labels: tenant, priority,
  /// channel), plus the scheduler's serve.scheduler.* account when a
  /// Scheduler serves through this service. Thread-safe alongside
  /// concurrent execute().
  void set_metrics(obs::MetricsRegistry* metrics) { sink_.metrics = metrics; }

  /// The attached surfaces (nullptr = off).
  obs::TraceRecorder* trace() const { return sink_.trace; }
  obs::MetricsRegistry* metrics() const { return sink_.metrics; }

 private:
  /// The active quantifier of (session, channel) at an epoch: the factory
  /// curve for epoch 0, the session's warm recalibration otherwise (built
  /// on first use). Emits no telemetry.
  const quant::Quantifier& epoch_quantifier(Session& session,
                                            std::uint32_t channel,
                                            std::uint32_t epoch);

  /// First run id of the recalibration campaign block owned by (session
  /// slot, channel, epoch) in the 2^43 domain.
  std::uint64_t recalibration_block(const Session& session,
                                    std::uint32_t channel,
                                    std::uint32_t epoch) const;

  /// epoch_quantifier plus the kRecalibration / kEpochSwap spans a
  /// field-recalibration epoch records on every use.
  const quant::Quantifier& quantifier_for(Session& session,
                                          std::uint32_t channel,
                                          std::uint32_t epoch,
                                          obs::TelemetryCapture& capture);

  /// One quantified channel read of a measured plan.
  ChannelResult channel_result(const RequestPlan& plan, const PlannedRead& read,
                               obs::TelemetryCapture& capture);

  /// Observability tap of one measured run: kExecution span plus the
  /// per-channel read counter.
  void note_run(const Request& request, std::uint32_t channel,
                std::uint64_t sequence, std::uint64_t run_id,
                obs::TelemetryCapture& capture);

  /// Quantified-estimate tap: one serve.service.estimate_mM histogram
  /// observation per produced ChannelResult (labels: tenant, channel) --
  /// the distribution behind the live p50/p90/p99 concentration tiles.
  void note_estimate(const Request& request, std::uint32_t channel,
                     double estimate_mM, obs::TelemetryCapture& capture);

  quant::CalibrationStore& store_;
  ServiceConfig config_;
  sim::MeasurementEngine engine_;  ///< const seeded calls only
  std::vector<sim::ChannelProtocol> protocols_;
  std::vector<const quant::Quantifier*> factory_;  ///< stable store addresses
  SessionRegistry registry_;
  obs::TelemetryStream sink_;  ///< recorder + registry, no bus
};

/// The replay pipeline of Scheduler::replay and ShardCluster::replay:
/// plan log[i] on *services[i], measure each distinct service's plans in
/// one lane-batched engine run, then finish every request; responses land
/// in log order. Every stage fans out over `parallelism` workers (0 =
/// hardware) and the responses are bitwise identical to sequential
/// execute() calls. Each request's telemetry records into a private
/// capture -- opened by `prelude(i, capture)` when given -- and the
/// captures commit to `sink` in log order, so the frame sequence is
/// independent of parallelism too.
std::vector<Response> replay_pipeline(
    std::span<const Request> log,
    std::span<DiagnosticsService* const> services, std::size_t parallelism,
    const obs::TelemetryStream& sink,
    const std::function<void(std::size_t, obs::TelemetryCapture&)>& prelude =
        {});

}  // namespace idp::serve
