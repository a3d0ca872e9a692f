/// \file service.cpp
/// DiagnosticsService implementation: run-id leasing, epoch resolution,
/// warm recalibration campaigns, the plan / measure / finish stages of a
/// request and the replay pipeline that batches them across a log.

#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "sim/batch.hpp"
#include "util/error.hpp"

namespace idp::serve {

namespace {

sim::EngineConfig service_engine_config(std::uint64_t seed) {
  sim::EngineConfig config;
  config.seed = seed;
  return config;
}

}  // namespace

DiagnosticsService::DiagnosticsService(quant::CalibrationStore& store,
                                       ServiceConfig config)
    : store_(store),
      config_(std::move(config)),
      engine_(service_engine_config(config_.engine_seed)),
      registry_(config_.registry_shards) {
  util::require(!config_.panel.empty(), "service needs at least one channel");
  util::require(config_.panel.size() <= kMaxServeChannels,
                "panel exceeds the serve channel packing");
  util::require(
      config_.run_ids_per_request >= std::max<std::size_t>(
                                         config_.panel.size(), 2),
      "run-id lease too small for the widest request kind");
  util::require(config_.qc_fraction > 0.0 && config_.qc_fraction < 1.0,
                "qc_fraction must sit inside the calibrated window");
  util::require(config_.recalibration_interval_days >= 0.0,
                "recalibration interval must be >= 0");

  // Resolve protocols and factory quantifiers up front (building any
  // missing campaign now), so execute() never touches the store's mutable
  // cache path.
  protocols_.reserve(config_.panel.size());
  factory_.reserve(config_.panel.size());
  for (bio::TargetId target : config_.panel) {
    protocols_.push_back(quant::default_protocol_for(store_.config(), target));
    factory_.push_back(&store_.quantifier(target, protocols_.back()));
  }
}

bio::TargetId DiagnosticsService::target(std::size_t channel) const {
  util::require(channel < config_.panel.size(), "channel out of range");
  return config_.panel[channel];
}

std::pair<double, double> DiagnosticsService::calibrated_range_mM(
    std::size_t channel) const {
  util::require(channel < factory_.size(), "channel out of range");
  return {factory_[channel]->c_low(), factory_[channel]->c_high()};
}

std::uint64_t DiagnosticsService::lease_base(std::uint64_t request_id) const {
  // The serve domain spans [2^42, 2^43); a request id large enough to walk
  // into the recalibration domain is a caller mistake.
  util::require(request_id <
                    (kServeRecalDomain - kServeRunDomain) /
                        config_.run_ids_per_request,
                "request id exceeds the serve run-id domain");
  return kServeRunDomain + request_id * config_.run_ids_per_request;
}

std::uint32_t DiagnosticsService::epoch_for(double sensor_age_days) const {
  if (config_.recalibration_interval_days <= 0.0) return 0;
  const double epochs =
      std::floor(sensor_age_days / config_.recalibration_interval_days);
  return static_cast<std::uint32_t>(
      std::min(epochs, static_cast<double>(kServeEpochSlots - 1)));
}

const quant::Quantifier& DiagnosticsService::epoch_quantifier(
    Session& session, std::uint32_t channel, std::uint32_t epoch) {
  if (epoch == 0) return *factory_[channel];
  return session
      .epoch_calibration(
          channel, epoch,
          [&]() -> quant::Calibration {
            // Field recalibration at the epoch boundary: rerun the
            // campaign on this session's sensor in the state it had at
            // age epoch * cadence, from the run-id block owned by
            // (session slot, channel, epoch) in the 2^43 domain.
            const fault::SensorState sensor = config_.degradation.state_at(
                static_cast<double>(epoch) *
                    config_.recalibration_interval_days,
                fault::SensorSite{session.site_id(), channel});
            return store_.recalibrate(config_.panel[channel],
                                      protocols_[channel], sensor,
                                      recalibration_block(session, channel,
                                                          epoch));
          })
      .quantifier;
}

std::uint64_t DiagnosticsService::recalibration_block(
    const Session& session, std::uint32_t channel, std::uint32_t epoch) const {
  return kServeRecalDomain +
         (((session.site_id() % kServeSessionSlots) * kMaxServeChannels +
           channel) *
              kServeEpochSlots +
          epoch) *
             quant::CalibrationStore::kRunsPerCampaignBlock;
}

const quant::Quantifier& DiagnosticsService::quantifier_for(
    Session& session, std::uint32_t channel, std::uint32_t epoch,
    obs::TelemetryCapture& capture) {
  const quant::Quantifier& quantifier =
      epoch_quantifier(session, channel, epoch);
  if (epoch == 0) return quantifier;
  // Campaign-active + epoch-swap spans, recorded by EVERY request that uses
  // the epoch: each field is a pure function of (session, channel, epoch),
  // so re-recordings are exact duplicates that collapse on commit and in
  // sorted() -- and each request's capture carries them regardless of
  // which request's builder won the warm-cache race (no metrics counter
  // for builds for the same reason: a *count* would depend on the race).
  const double boundary_h = static_cast<double>(epoch) *
                            config_.recalibration_interval_days * 24.0;
  const auto block =
      static_cast<double>(recalibration_block(session, channel, epoch));
  capture.span(session.site_id(), obs::SpanKind::kRecalibration, channel,
               epoch, 0, boundary_h, block);
  capture.span(session.site_id(), obs::SpanKind::kEpochSwap, channel, epoch,
               0, boundary_h, static_cast<double>(epoch));
  return quantifier;
}

void DiagnosticsService::measure(std::span<RequestPlan* const> plans,
                                 std::size_t parallelism) const {
  std::size_t n_reads = 0;
  for (const RequestPlan* plan : plans) n_reads += plan->reads.size();

  // Every measurement owns a fresh probe and front end seeded from its
  // leased run id, which buys order-independence (persistent probes/front
  // ends would carry noise and chemistry state from whichever request ran
  // before). The probe is a clone of the factory's calibrated prototype
  // for this design (one calibration per process), so a read pays a copy
  // of its diffusion fields, not a calibration search.
  std::vector<bio::ProbePtr> probes;
  std::vector<std::unique_ptr<afe::AnalogFrontEnd>> frontends;
  std::vector<sim::Measurement> measurements;
  std::vector<PlannedRead*> reads;
  probes.reserve(n_reads);
  frontends.reserve(n_reads);
  measurements.reserve(n_reads);
  reads.reserve(n_reads);
  for (RequestPlan* plan : plans) {
    for (PlannedRead& read : plan->reads) {
      const bio::TargetId target_id = config_.panel[read.channel];
      probes.push_back(
          quant::make_campaign_probe(store_.config(), target_id));
      probes.back()->set_bulk_concentration(bio::to_string(target_id),
                                            read.concentration_mM);
      frontends.push_back(std::make_unique<afe::AnalogFrontEnd>(
          quant::campaign_frontend_config(
              store_.config(), config_.engine_seed + kServeFrontendSeedDomain +
                                   read.run_id * kServeSeedStride)));
      const fault::SensorState sensor = config_.degradation.state_at(
          plan->age_days,
          fault::SensorSite{plan->session->site_id(), read.channel});
      measurements.push_back(sim::Measurement{
          read.run_id, sim::Channel{probes.back().get(), nullptr, sensor},
          protocols_[read.channel], frontends.back().get()});
      reads.push_back(&read);
    }
  }
  engine_.run_measurements(
      measurements, parallelism,
      [&](std::size_t i, sim::MeasurementResult&& result) {
        reads[i]->response = quant::panel_response(
            config_.panel[reads[i]->channel], result.amperogram,
            result.voltammogram);
      });
}

ChannelResult DiagnosticsService::channel_result(
    const RequestPlan& plan, const PlannedRead& read,
    obs::TelemetryCapture& capture) {
  ChannelResult result;
  result.channel = read.channel;
  result.target = config_.panel[read.channel];
  result.truth_mM = read.concentration_mM;
  result.response = read.response;
  result.estimate = quantifier_for(*plan.session, read.channel, plan.epoch,
                                   capture)
                        .quantify(result.response);
  return result;
}

void DiagnosticsService::note_run(const Request& request,
                                  std::uint32_t channel,
                                  std::uint64_t sequence,
                                  std::uint64_t run_id,
                                  obs::TelemetryCapture& capture) {
  obs::MetricLabels labels;
  labels.tenant = static_cast<std::int32_t>(request.session.tenant);
  labels.channel = static_cast<std::int32_t>(channel);
  capture.span(request.id, obs::SpanKind::kExecution, channel, sequence, 0,
               request.time_h, static_cast<double>(run_id));
  capture.count(request.kind == RequestKind::kQcCheck
                    ? "serve.service.qc_runs"
                    : "serve.service.channel_reads",
                labels);
}

void DiagnosticsService::note_estimate(const Request& request,
                                       std::uint32_t channel,
                                       double estimate_mM,
                                       obs::TelemetryCapture& capture) {
  obs::MetricLabels labels;
  labels.tenant = static_cast<std::int32_t>(request.session.tenant);
  labels.channel = static_cast<std::int32_t>(channel);
  capture.observe("serve.service.estimate_mM", labels, estimate_mM);
}

RequestPlan DiagnosticsService::plan(const Request& request) {
  const std::size_t n_channels = config_.panel.size();
  switch (request.kind) {
    case RequestKind::kPanelScan:
      util::require(request.concentrations_mM.size() == n_channels,
                    "panel scan needs one concentration per channel");
      break;
    case RequestKind::kQuantifiedRead:
      util::require(request.concentrations_mM.size() == 1,
                    "quantified read carries exactly one concentration");
      util::require(request.channel < n_channels, "channel out of range");
      break;
    case RequestKind::kQcCheck:
      util::require(request.concentrations_mM.empty(),
                    "QC levels are service configuration, not request content");
      util::require(request.channel < n_channels, "channel out of range");
      break;
  }

  RequestPlan plan;
  plan.request = &request;
  plan.session = &registry_.get_or_create(request.session);
  plan.session->note_request();
  plan.age_days =
      std::max(0.0, (request.time_h - config_.sensor_install_h) / 24.0);
  plan.epoch = epoch_for(plan.age_days);
  plan.lease = lease_base(request.id);

  switch (request.kind) {
    case RequestKind::kPanelScan:
      plan.reads.reserve(n_channels);
      for (std::uint32_t c = 0; c < n_channels; ++c) {
        plan.reads.push_back({c, request.concentrations_mM[c], plan.lease + c});
      }
      break;
    case RequestKind::kQuantifiedRead:
      plan.reads.push_back(
          {request.channel, request.concentrations_mM[0], plan.lease});
      break;
    case RequestKind::kQcCheck: {
      // A blank and the channel's known standard through the aged sensor;
      // the standard sits at qc_fraction of the active calibration window.
      const quant::Quantifier& quantifier =
          epoch_quantifier(*plan.session, request.channel, plan.epoch);
      const double qc_mM =
          quantifier.c_low() +
          config_.qc_fraction * (quantifier.c_high() - quantifier.c_low());
      plan.reads.push_back({request.channel, 0.0, plan.lease});
      plan.reads.push_back({request.channel, qc_mM, plan.lease + 1});
      break;
    }
  }
  return plan;
}

Response DiagnosticsService::finish(const RequestPlan& plan,
                                    obs::TelemetryCapture& capture) {
  const Request& request = *plan.request;
  capture.tenant = static_cast<std::int32_t>(request.session.tenant);
  {
    obs::MetricLabels labels;
    labels.tenant = capture.tenant;
    labels.priority = static_cast<std::int32_t>(request.priority);
    capture.span(request.id, obs::SpanKind::kLeaseGrant, plan.lease, 0, 0,
                 request.time_h, static_cast<double>(plan.epoch));
    capture.count("serve.service.requests", labels);
  }

  Response response;
  response.request_id = request.id;
  response.session = request.session;
  response.priority = request.priority;
  response.kind = request.kind;
  response.time_h = request.time_h;
  response.sensor_age_days = plan.age_days;
  response.calibration_epoch = plan.epoch;

  switch (request.kind) {
    case RequestKind::kPanelScan:
    case RequestKind::kQuantifiedRead: {
      response.channels.reserve(plan.reads.size());
      for (std::size_t k = 0; k < plan.reads.size(); ++k) {
        const PlannedRead& read = plan.reads[k];
        response.channels.push_back(channel_result(plan, read, capture));
        note_run(request, read.channel, k, read.run_id, capture);
        note_estimate(request, read.channel,
                      response.channels.back().estimate.value, capture);
      }
      break;
    }
    case RequestKind::kQcCheck: {
      // The blank and the standard standardised against the active
      // calibration's prediction -- the service-layer counterpart of the
      // scenario QC loop.
      const PlannedRead& blank = plan.reads[0];
      const PlannedRead& standard_read = plan.reads[1];
      const quant::Quantifier& quantifier =
          quantifier_for(*plan.session, request.channel, plan.epoch, capture);
      const double sigma = std::max(quantifier.response_sigma(), 1e-15);
      response.qc_blank_residual =
          (blank.response - quantifier.blank_mean()) / sigma;

      ChannelResult standard = channel_result(plan, standard_read, capture);
      response.qc_standard_residual =
          (standard.response -
           util::evaluate(quantifier.fit(), standard_read.concentration_mM)) /
          sigma;
      const double standard_estimate = standard.estimate.value;
      response.channels.push_back(std::move(standard));
      note_run(request, request.channel, 0, blank.run_id, capture);
      note_run(request, request.channel, 1, standard_read.run_id, capture);
      note_estimate(request, request.channel, standard_estimate, capture);
      break;
    }
  }
  return response;
}

Response DiagnosticsService::execute(const Request& request) {
  RequestPlan one = plan(request);
  RequestPlan* const plans[] = {&one};
  measure(plans, 1);
  obs::TelemetryCapture capture;
  Response response = finish(one, capture);
  sink_.commit(capture);
  return response;
}

std::vector<Response> replay_pipeline(
    std::span<const Request> log,
    std::span<DiagnosticsService* const> services, std::size_t parallelism,
    const obs::TelemetryStream& sink,
    const std::function<void(std::size_t, obs::TelemetryCapture&)>& prelude) {
  util::require(services.size() == log.size(), "one service per request");
  // Every request's run-id lease is fixed by its id before anything
  // executes, and every stage writes to pre-assigned slots -- the
  // BatchRunner contract, extended to the service layer.
  const sim::BatchRunner runner(parallelism);
  std::vector<RequestPlan> plans(log.size());
  runner.run(log.size(),
             [&](std::size_t i) { plans[i] = services[i]->plan(log[i]); });

  // One lane-batched engine run per distinct service, over its plans in
  // log order.
  std::vector<DiagnosticsService*> distinct;
  for (DiagnosticsService* service : services) {
    if (std::find(distinct.begin(), distinct.end(), service) ==
        distinct.end()) {
      distinct.push_back(service);
    }
  }
  for (DiagnosticsService* service : distinct) {
    std::vector<RequestPlan*> mine;
    for (std::size_t i = 0; i < log.size(); ++i) {
      if (services[i] == service) mine.push_back(&plans[i]);
    }
    service->measure(mine, parallelism);
  }

  // Each request's telemetry records into a private capture, and the
  // captures commit in log order through the sequencer -- the published
  // per-topic frame sequence is a pure function of (log, configuration),
  // independent of parallelism.
  std::vector<Response> responses(log.size());
  obs::StreamSequencer sequencer(sink, log.size());
  runner.run(log.size(), [&](std::size_t i) {
    obs::TelemetryCapture capture;
    if (prelude) prelude(i, capture);
    responses[i] = services[i]->finish(plans[i], capture);
    sequencer.deposit(i, std::move(capture));
  });
  return responses;
}

}  // namespace idp::serve
