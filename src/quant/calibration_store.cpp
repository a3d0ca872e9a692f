/// \file calibration_store.cpp
/// Calibration campaign execution and the per-(target, protocol) cache.

#include "quant/calibration_store.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "dsp/peaks.hpp"
#include "sim/batch.hpp"
#include "util/error.hpp"

namespace idp::quant {

namespace {

std::uint64_t target_index(bio::TargetId id) {
  return static_cast<std::uint64_t>(id);
}

double ca_potential_for(const bio::TargetSpec& spec) {
  // Direct oxidisers are driven 250 mV past their formal potential.
  return spec.family == bio::ProbeFamily::kDirectOxidation
             ? spec.operating_potential + 0.25
             : spec.operating_potential;
}

}  // namespace

bio::ProbePtr make_campaign_probe(const CampaignConfig& config,
                                  bio::TargetId target) {
  const double gain =
      bio::spec(target).family == bio::ProbeFamily::kCytochromeP450
          ? config.cyp_sensitivity_gain
          : 1.0;
  return bio::make_probe(target, config.probe_area_m2, gain);
}

afe::AfeConfig campaign_frontend_config(const CampaignConfig& config,
                                        std::uint64_t seed) {
  afe::AfeConfig fe;
  fe.tia = afe::lab_grade_tia();
  fe.adc = afe::AdcSpec{.bits = 16, .v_low = -10.0, .v_high = 10.0,
                        .sample_rate = config.sample_rate_hz};
  fe.seed = seed;
  return fe;
}

sim::ChannelProtocol default_protocol_for(const CampaignConfig& config,
                                          bio::TargetId target) {
  const bio::TargetSpec& spec = bio::spec(target);
  if (spec.family == bio::ProbeFamily::kCytochromeP450) {
    sim::CyclicVoltammetryProtocol cv;
    cv.e_start = 0.1;
    cv.e_vertex = spec.operating_potential - 0.25;
    cv.scan_rate = 0.02;  // the cell-faithful limit
    cv.cycles = 1;
    cv.sample_rate = config.sample_rate_hz;
    return cv;
  }
  sim::ChronoamperometryProtocol ca;
  ca.potential = ca_potential_for(spec);
  ca.duration = config.ca_duration_s;
  ca.sample_rate = config.sample_rate_hz;
  return ca;
}

double panel_response(bio::TargetId target, const sim::Trace& ca,
                      const sim::CvCurve& cv) {
  if (!ca.empty()) {
    const double t_end = ca.time().back();
    return ca.mean_in_window(0.8 * t_end, t_end);
  }
  return dsp::reduction_response_at(cv, bio::spec(target).operating_potential,
                                    0.05);
}

std::string protocol_key(const sim::ChannelProtocol& protocol) {
  // %.17g is round-trip precision for double: distinct protocols can never
  // collide to one cache key.
  char buf[192];
  if (std::holds_alternative<sim::ChronoamperometryProtocol>(protocol)) {
    const auto& p = std::get<sim::ChronoamperometryProtocol>(protocol);
    std::snprintf(buf, sizeof buf, "ca|%.17g|%.17g|%.17g", p.potential,
                  p.duration, p.sample_rate);
  } else {
    const auto& p = std::get<sim::CyclicVoltammetryProtocol>(protocol);
    std::snprintf(buf, sizeof buf, "cv|%.17g|%.17g|%.17g|%d|%.17g", p.e_start,
                  p.e_vertex, p.scan_rate, p.cycles, p.sample_rate);
  }
  return buf;
}

namespace {

sim::EngineConfig campaign_engine_config(std::uint64_t seed) {
  sim::EngineConfig cfg;
  cfg.seed = seed;
  return cfg;
}

}  // namespace

CalibrationStore::CalibrationStore(CampaignConfig config)
    : config_(config), engine_(campaign_engine_config(config.seed)) {
  util::require(config_.calibration_points >= 3,
                "campaign needs >= 3 calibration points");
  util::require(config_.blank_measurements >= 2,
                "campaign needs >= 2 blanks for Eq. 5");
  util::require(
      static_cast<std::uint64_t>(config_.calibration_points) +
              static_cast<std::uint64_t>(config_.blank_measurements) <
          kRunsPerCampaignBlock,
      "campaign exceeds the per-target run-id block");
}

Calibration CalibrationStore::build_calibration(
    bio::TargetId target, const sim::ChannelProtocol& protocol,
    const fault::SensorState& sensor, std::uint64_t first_run_id,
    std::uint64_t frontend_seed) const {
  const bio::TargetSpec& spec = bio::spec(target);
  // Concentration sweep across the probe's specified linear range
  // (mM == mol/m^3), endpoints included.
  const double lo = std::max(spec.linear_lo_mM, 1e-6);
  const double hi = spec.linear_hi_mM;
  util::ensure(hi > lo, "probe spec has a degenerate linear range");
  const int n = config_.calibration_points;
  std::vector<double> concentrations;
  concentrations.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(n - 1);
    concentrations.push_back(lo + f * (hi - lo));
  }

  const bio::ProbePtr probe = make_campaign_probe(config_, target);
  afe::AnalogFrontEnd frontend(
      campaign_frontend_config(config_, frontend_seed));
  const auto blanks = static_cast<std::size_t>(config_.blank_measurements);
  const std::vector<sim::MeasurementResult> runs = engine_.run_campaign(
      {probe.get(), bio::to_string(target), blanks, concentrations, nullptr,
       sensor, protocol, &frontend, first_run_id});

  Calibration calibration;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const double response =
        panel_response(target, runs[r].amperogram, runs[r].voltammogram);
    if (r < blanks) {
      calibration.curve.add_blank(response);
    } else {
      calibration.curve.add_point(concentrations[r - blanks], response);
    }
  }
  calibration.quantifier = Quantifier(calibration.curve, config_.quantifier);
  return calibration;
}

CalibrationStore::Entry CalibrationStore::build_entry(
    bio::TargetId target, const sim::ChannelProtocol& protocol) const {
  // The cached pristine campaign keeps its historical seeding (run-id
  // block by target, front-end seed by target) so cached curves stay
  // bitwise stable across releases -- the golden figure-of-merit fixture
  // pins this.
  return build_calibration(
      target, protocol, fault::SensorState{},
      target_index(target) * CalibrationStore::kRunsPerCampaignBlock,
      config_.seed + 1000003 * (target_index(target) + 1));
}

Calibration CalibrationStore::recalibrate(bio::TargetId target,
                                          const sim::ChannelProtocol& protocol,
                                          const fault::SensorState& sensor,
                                          std::uint64_t run_id_block) const {
  util::require(
      static_cast<std::uint64_t>(config_.blank_measurements) +
              static_cast<std::uint64_t>(config_.calibration_points) <
          kRunsPerCampaignBlock,
      "campaign exceeds the per-block run-id budget");
  // The front-end seed derives from the run-id block, so two
  // recalibrations of different sensors (or of one sensor at different
  // ages) never share an electronics noise stream.
  return build_calibration(target, protocol, sensor, run_id_block,
                           config_.seed + 0x5ca1ab1eULL +
                               run_id_block * 0x9e3779b97f4a7c15ULL);
}

const CalibrationStore::Entry& CalibrationStore::entry(
    bio::TargetId target, const sim::ChannelProtocol& protocol) {
  const Key key{target, protocol_key(protocol)};
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) return *it->second;
  }
  // Build outside the lock (campaigns are seconds of simulated chemistry).
  // A concurrent builder of the same key produces a bitwise identical
  // entry; the first insert wins and the duplicate is discarded.
  auto built = std::make_unique<Entry>(build_entry(target, protocol));
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = cache_.try_emplace(key, std::move(built));
  return *it->second;
}

const Quantifier& CalibrationStore::quantifier(bio::TargetId target) {
  return quantifier(target, default_protocol_for(config_, target));
}

const dsp::CalibrationCurve& CalibrationStore::curve(bio::TargetId target) {
  return curve(target, default_protocol_for(config_, target));
}

const Quantifier& CalibrationStore::quantifier(
    bio::TargetId target, const sim::ChannelProtocol& protocol) {
  return entry(target, protocol).quantifier;
}

const dsp::CalibrationCurve& CalibrationStore::curve(
    bio::TargetId target, const sim::ChannelProtocol& protocol) {
  return entry(target, protocol).curve;
}

void CalibrationStore::prepare(std::span<const bio::TargetId> targets,
                               std::size_t parallelism) {
  // Dedupe while preserving order, then fan the campaigns out.
  std::vector<bio::TargetId> todo;
  for (bio::TargetId t : targets) {
    if (std::find(todo.begin(), todo.end(), t) == todo.end()) {
      todo.push_back(t);
    }
  }
  const sim::BatchRunner runner(parallelism);
  runner.run(todo.size(), [&](std::size_t i) {
    (void)entry(todo[i], default_protocol_for(config_, todo[i]));
  });
}

std::size_t CalibrationStore::cached_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

}  // namespace idp::quant
