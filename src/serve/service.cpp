/// \file service.cpp
/// DiagnosticsService implementation: run-id leasing, epoch resolution,
/// warm recalibration campaigns and the per-request measurement path.

#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <variant>

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

const quant::Quantifier& DiagnosticsService::quantifier_for(
    Session& session, std::uint32_t channel, std::uint32_t epoch,
    obs::TelemetryCapture* capture) {
  if (epoch == 0) return *factory_[channel];
  const double boundary_age =
      static_cast<double>(epoch) * config_.recalibration_interval_days;
  // The campaign block is a pure function of (session, channel, epoch) --
  // computed here (not in the builder) so the kRecalibration span can emit
  // for every request on the epoch, not just the cache-building winner.
  const std::uint64_t block =
      kServeRecalDomain +
      (((session.site_id() % kServeSessionSlots) * kMaxServeChannels +
        channel) *
           kServeEpochSlots +
       epoch) *
          quant::CalibrationStore::kRunsPerCampaignBlock;
  const quant::Quantifier& quantifier =
      session
          .epoch_calibration(
              channel, epoch,
              [&]() -> quant::Calibration {
                // Field recalibration at the epoch boundary: rerun the
                // campaign on this session's sensor in the state it had at
                // age epoch * cadence, from the run-id block owned by
                // (session slot, channel, epoch) in the 2^43 domain.
                const fault::SensorState sensor = config_.degradation.state_at(
                    boundary_age,
                    fault::SensorSite{session.site_id(), channel});
                return store_.recalibrate(config_.panel[channel],
                                          protocols_[channel], sensor, block);
              })
          .quantifier;
  // Campaign-active + epoch-swap spans, emitted by EVERY request that uses
  // the epoch: each field is a pure function of (session, channel, epoch),
  // so re-emissions are exact duplicates that collapse in sorted() -- and
  // under streaming, each request's capture carries them regardless of
  // which request's builder won the warm-cache race (no metrics counter
  // for builds for the same reason: a *count* would depend on the race).
  if (capture != nullptr) {
    capture->span(session.site_id(), obs::SpanKind::kRecalibration, channel,
                  epoch, 0, boundary_age * 24.0, static_cast<double>(block));
    capture->span(session.site_id(), obs::SpanKind::kEpochSwap, channel,
                  epoch, 0, boundary_age * 24.0, static_cast<double>(epoch));
  } else if (trace_ != nullptr) {
    trace_->record(session.site_id(), obs::SpanKind::kRecalibration, channel,
                   epoch, 0, boundary_age * 24.0, static_cast<double>(block));
    trace_->record(session.site_id(), obs::SpanKind::kEpochSwap, channel,
                   epoch, 0, boundary_age * 24.0,
                   static_cast<double>(epoch));
  }
  return quantifier;
}

double DiagnosticsService::measure(Session& session, std::uint32_t channel,
                                   double age_days, double concentration_mM,
                                   std::uint64_t run_id) const {
  const bio::TargetId target_id = config_.panel[channel];
  const fault::SensorState sensor = config_.degradation.state_at(
      age_days, fault::SensorSite{session.site_id(), channel});

  // Every measurement owns a fresh probe and front end seeded from its
  // leased run id, which buys order-independence (persistent probes/front
  // ends would carry noise and chemistry state from whichever request ran
  // before). The probe is a clone of the factory's calibrated prototype
  // for this design (one calibration per process), so a request pays a
  // copy of its diffusion fields, not a calibration search.
  bio::ProbePtr probe = quant::make_campaign_probe(store_.config(), target_id);
  probe->set_bulk_concentration(bio::to_string(target_id), concentration_mM);
  afe::AnalogFrontEnd frontend(quant::campaign_frontend_config(
      store_.config(), config_.engine_seed + kServeFrontendSeedDomain +
                           run_id * kServeSeedStride));
  const sim::Channel sim_channel{probe.get(), nullptr, sensor};

  const sim::ChannelProtocol& protocol = protocols_[channel];
  if (std::holds_alternative<sim::ChronoamperometryProtocol>(protocol)) {
    const auto& p = std::get<sim::ChronoamperometryProtocol>(protocol);
    const sim::Trace trace =
        engine_.run_chronoamperometry_seeded(run_id, sim_channel, p, frontend);
    return quant::panel_response(target_id, trace, sim::CvCurve{});
  }
  const auto& p = std::get<sim::CyclicVoltammetryProtocol>(protocol);
  const sim::CvCurve curve =
      engine_.run_cyclic_voltammetry_seeded(run_id, sim_channel, p, frontend);
  return quant::panel_response(target_id, sim::Trace{}, curve);
}

ChannelResult DiagnosticsService::run_channel(Session& session,
                                              std::uint32_t channel,
                                              std::uint32_t epoch,
                                              double age_days,
                                              double concentration_mM,
                                              std::uint64_t run_id,
                                              obs::TelemetryCapture* capture) {
  ChannelResult result;
  result.channel = channel;
  result.target = config_.panel[channel];
  result.truth_mM = concentration_mM;
  result.response =
      measure(session, channel, age_days, concentration_mM, run_id);
  result.estimate = quantifier_for(session, channel, epoch, capture)
                        .quantify(result.response);
  return result;
}

void DiagnosticsService::note_run(const Request& request,
                                  std::uint32_t channel,
                                  std::uint64_t sequence,
                                  std::uint64_t run_id,
                                  obs::TelemetryCapture* capture) {
  const char* counter = request.kind == RequestKind::kQcCheck
                            ? "serve.service.qc_runs"
                            : "serve.service.channel_reads";
  obs::MetricLabels labels;
  labels.tenant = static_cast<std::int32_t>(request.session.tenant);
  labels.channel = static_cast<std::int32_t>(channel);
  if (capture != nullptr) {
    capture->span(request.id, obs::SpanKind::kExecution, channel, sequence,
                  0, request.time_h, static_cast<double>(run_id));
    capture->count(counter, labels);
    return;
  }
  if (trace_ != nullptr) {
    trace_->record(request.id, obs::SpanKind::kExecution, channel, sequence,
                   0, request.time_h, static_cast<double>(run_id));
  }
  if (metrics_ != nullptr) {
    metrics_->counter(counter, labels).add(1);
  }
}

void DiagnosticsService::note_estimate(const Request& request,
                                       std::uint32_t channel,
                                       double estimate_mM,
                                       obs::TelemetryCapture* capture) {
  obs::MetricLabels labels;
  labels.tenant = static_cast<std::int32_t>(request.session.tenant);
  labels.channel = static_cast<std::int32_t>(channel);
  if (capture != nullptr) {
    capture->observe("serve.service.estimate_mM", labels, estimate_mM);
  } else if (metrics_ != nullptr) {
    metrics_->histogram("serve.service.estimate_mM", labels)
        .observe(estimate_mM);
  }
}

Response DiagnosticsService::execute(const Request& request,
                                     obs::TelemetryCapture* capture) {
  const std::size_t n_channels = config_.panel.size();
  if (capture != nullptr) {
    capture->tenant = static_cast<std::int32_t>(request.session.tenant);
  }
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

  Session& session = registry_.get_or_create(request.session);
  session.note_request();

  const double age_days =
      std::max(0.0, (request.time_h - config_.sensor_install_h) / 24.0);
  const std::uint32_t epoch = epoch_for(age_days);
  const std::uint64_t lease = lease_base(request.id);

  {
    obs::MetricLabels labels;
    labels.tenant = static_cast<std::int32_t>(request.session.tenant);
    labels.priority = static_cast<std::int32_t>(request.priority);
    if (capture != nullptr) {
      capture->span(request.id, obs::SpanKind::kLeaseGrant, lease, 0, 0,
                    request.time_h, static_cast<double>(epoch));
      capture->count("serve.service.requests", labels);
    } else {
      if (trace_ != nullptr) {
        trace_->record(request.id, obs::SpanKind::kLeaseGrant, lease, 0, 0,
                       request.time_h, static_cast<double>(epoch));
      }
      if (metrics_ != nullptr) {
        metrics_->counter("serve.service.requests", labels).add(1);
      }
    }
  }

  Response response;
  response.request_id = request.id;
  response.session = request.session;
  response.priority = request.priority;
  response.kind = request.kind;
  response.time_h = request.time_h;
  response.sensor_age_days = age_days;
  response.calibration_epoch = epoch;

  switch (request.kind) {
    case RequestKind::kPanelScan: {
      response.channels.reserve(n_channels);
      for (std::uint32_t c = 0; c < n_channels; ++c) {
        response.channels.push_back(run_channel(
            session, c, epoch, age_days, request.concentrations_mM[c],
            lease + c, capture));
        note_run(request, c, c, lease + c, capture);
        note_estimate(request, c, response.channels.back().estimate.value,
                      capture);
      }
      break;
    }
    case RequestKind::kQuantifiedRead: {
      response.channels.push_back(run_channel(session, request.channel, epoch,
                                              age_days,
                                              request.concentrations_mM[0],
                                              lease, capture));
      note_run(request, request.channel, 0, lease, capture);
      note_estimate(request, request.channel,
                    response.channels.back().estimate.value, capture);
      break;
    }
    case RequestKind::kQcCheck: {
      // A blank and the channel's known standard through the aged sensor,
      // standardised against the active calibration's prediction -- the
      // service-layer counterpart of the scenario QC loop.
      const quant::Quantifier& quantifier =
          quantifier_for(session, request.channel, epoch, capture);
      const double qc_mM =
          quantifier.c_low() +
          config_.qc_fraction * (quantifier.c_high() - quantifier.c_low());
      const double sigma = std::max(quantifier.response_sigma(), 1e-15);

      const double r_blank =
          measure(session, request.channel, age_days, 0.0, lease);
      response.qc_blank_residual =
          (r_blank - quantifier.blank_mean()) / sigma;

      ChannelResult standard = run_channel(session, request.channel, epoch,
                                           age_days, qc_mM, lease + 1,
                                           capture);
      response.qc_standard_residual =
          (standard.response -
           util::evaluate(quantifier.fit(), qc_mM)) /
          sigma;
      const double standard_estimate = standard.estimate.value;
      response.channels.push_back(std::move(standard));
      note_run(request, request.channel, 0, lease, capture);      // blank
      note_run(request, request.channel, 1, lease + 1, capture);  // standard
      note_estimate(request, request.channel, standard_estimate, capture);
      break;
    }
  }
  return response;
}

}  // namespace idp::serve
