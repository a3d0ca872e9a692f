/// \file elaborate.cpp
/// Elaboration implementation: assemble a runnable virtual platform from
/// a candidate and validate it against the panel by simulation.

#include "core/elaborate.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/constraints.hpp"
#include "dsp/peaks.hpp"
#include "sim/batch.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace idp::plat {

bool ValidationReport::all_pass() const {
  return std::all_of(targets.begin(), targets.end(), [](const auto& t) {
    return t.meets_lod && t.covers_range;
  });
}

namespace {

chem::Nanostructure nanostructure_for(const WorkingElectrodePlan& plan) {
  if (plan.nanostructured) return chem::Nanostructure::kCarbonNanotube;
  // Probes whose Table III calibration already assumed CNT keep it.
  for (bio::TargetId t : plan.targets) {
    if (bio::spec(t).nanostructured_baseline &&
        bio::spec(t).family != bio::ProbeFamily::kDirectOxidation) {
      return chem::Nanostructure::kCarbonNanotube;
    }
  }
  return chem::Nanostructure::kNone;
}

double ca_potential_for(bio::TargetId id) {
  const auto& s = bio::spec(id);
  // Direct oxidizers are driven 250 mV past their formal potential.
  return s.family == bio::ProbeFamily::kDirectOxidation
             ? s.operating_potential + 0.25
             : s.operating_potential;
}

}  // namespace

ElaboratedPlatform::ElaboratedPlatform(PlatformCandidate candidate,
                                       const ComponentCatalog& catalog,
                                       ElaborationOptions options)
    : candidate_(std::move(candidate)), options_(options) {
  util::require(!candidate_.electrodes.empty(), "candidate has no electrodes");
  pad_area_m2_ = catalog.electrode_pad_area_mm2() * 1e-6;

  sim::EngineConfig engine_config;
  engine_config.seed = options_.seed;
  engine_ = sim::MeasurementEngine(engine_config);

  mux_model_ =
      catalog.mux_for(std::max<std::size_t>(candidate_.electrodes.size(), 1))
          .model;

  // The first probe of a design runs the secant calibration sweeps (later
  // ones clone the factory's calibrated prototype); each electrode's probe
  // is independent, so acquire them concurrently into pre-assigned slots
  // (bitwise identical to sequential construction).
  probes_.resize(candidate_.electrodes.size());
  const sim::BatchRunner builder(options_.parallelism);
  builder.run(candidate_.electrodes.size(), [&](std::size_t i) {
    const WorkingElectrodePlan& plan = candidate_.electrodes[i];
    util::require(!plan.targets.empty(), "electrode plan without targets");
    const double gain =
        plan_sensitivity_gain(plan, plan.targets.front(), catalog);
    if (plan.targets.size() > 1 ||
        bio::spec(plan.targets.front()).family ==
            bio::ProbeFamily::kCytochromeP450) {
      probes_[i] = bio::make_cyp_probe(plan.targets, pad_area_m2_, gain);
    } else {
      probes_[i] = bio::make_probe(plan.targets.front(), pad_area_m2_, gain);
    }
  });

  for (std::size_t i = 0; i < candidate_.electrodes.size(); ++i) {
    const WorkingElectrodePlan& plan = candidate_.electrodes[i];

    // --- physical electrode ------------------------------------------------
    const chem::Electrode electrode(
        chem::ElectrodeRole::kWorking, chem::ElectrodeMaterial::kGold,
        chem::ElectrodeGeometry{pad_area_m2_}, nanostructure_for(plan));

    // --- front end -----------------------------------------------------------
    const ReadoutSpec& readout =
        options_.lab_grade_readout ? catalog.readout(ReadoutClass::kLabGrade)
                                   : catalog.readout(plan.readout);
    afe::AfeConfig fe_config;
    fe_config.tia = readout.tia;
    fe_config.adc = readout.adc;
    fe_config.adc.sample_rate = options_.sample_rate;
    fe_config.reduction.chopper = candidate_.chopper;
    fe_config.reduction.cds = candidate_.cds;
    fe_config.seed = options_.seed + 17 * (i + 1);

    // --- protocol ---------------------------------------------------------------
    sim::ChannelProtocol protocol;
    if (plan.technique == bio::Technique::kChronoamperometry) {
      sim::ChronoamperometryProtocol ca;
      ca.potential = ca_potential_for(plan.targets.front());
      ca.duration = options_.ca_duration_s;
      ca.sample_rate = options_.sample_rate;
      protocol = ca;
    } else {
      const SweepWindow w = sweep_window_for(plan);
      sim::CyclicVoltammetryProtocol cv;
      cv.e_start = w.e_start;
      cv.e_vertex = w.e_vertex;
      cv.scan_rate = catalog.cell_scan_rate_limit();
      cv.cycles = 1;
      cv.sample_rate = options_.sample_rate;
      protocol = cv;
    }

    runtimes_.push_back(ElectrodeRuntime{
        electrode, afe::AnalogFrontEnd(fe_config), protocol});
  }
}

std::size_t ElaboratedPlatform::electrode_of(bio::TargetId target) const {
  const std::string name = bio::to_string(target);
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    for (const auto& t : probes_[i]->targets()) {
      if (t == name) return i;
    }
  }
  throw std::invalid_argument("target " + name + " not on this platform");
}

double ElaboratedPlatform::response_of(bio::TargetId target,
                                       std::size_t electrode_index,
                                       const sim::Trace& ca,
                                       const sim::CvCurve& cv) const {
  (void)electrode_index;
  if (!ca.empty()) {
    const double t_end = ca.time().back();
    return ca.mean_in_window(0.8 * t_end, t_end);
  }
  return dsp::reduction_response_at(cv, bio::spec(target).operating_potential,
                                    0.05);
}

std::size_t ElaboratedPlatform::calibration_run_count(
    std::size_t n_points) const {
  return static_cast<std::size_t>(std::max(options_.blank_measurements, 0)) +
         n_points;
}

dsp::CalibrationCurve ElaboratedPlatform::calibrate(
    bio::TargetId target, std::span<const double> concentrations) {
  return calibrate_seeded(
      target, concentrations,
      engine_.reserve_run_ids(calibration_run_count(concentrations.size())));
}

dsp::CalibrationCurve ElaboratedPlatform::calibrate_seeded(
    bio::TargetId target, std::span<const double> concentrations,
    std::uint64_t run_id_base) {
  const std::size_t e = electrode_of(target);
  bio::Probe& probe = *probes_[e];
  ElectrodeRuntime& rt = runtimes_[e];

  // Zero every co-target so calibrations are independent; the campaign's
  // runs measure clones of the zeroed probe.
  for (const auto& t : probe.targets()) probe.set_bulk_concentration(t, 0.0);
  const auto blanks =
      static_cast<std::size_t>(std::max(options_.blank_measurements, 0));
  const std::vector<sim::MeasurementResult> runs = engine_.run_campaign(
      {&probe, bio::to_string(target), blanks, concentrations, &rt.electrode,
       fault::SensorState{}, rt.protocol, &rt.frontend, run_id_base});

  dsp::CalibrationCurve curve;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const double response =
        response_of(target, e, runs[r].amperogram, runs[r].voltammogram);
    if (r < blanks) {
      curve.add_blank(response);
    } else {
      curve.add_point(concentrations[r - blanks], response);
    }
  }
  return curve;
}

TargetValidation ElaboratedPlatform::validate_target(
    const TargetRequirement& requirement) {
  const std::size_t n_points =
      static_cast<std::size_t>(std::max(options_.calibration_points, 3));
  return validate_target_seeded(
      requirement, engine_.reserve_run_ids(calibration_run_count(n_points)));
}

TargetValidation ElaboratedPlatform::validate_target_seeded(
    const TargetRequirement& requirement, std::uint64_t run_id_base) {
  TargetValidation v;
  v.target = requirement.target;
  v.electrode = electrode_of(requirement.target);

  const double lo = requirement.effective_lo_mM();
  const double hi = requirement.effective_hi_mM();
  util::require(hi > lo && hi > 0.0, "degenerate requirement range");

  std::vector<double> concentrations;
  const int n = std::max(options_.calibration_points, 3);
  for (int i = 0; i < n; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(n - 1);
    concentrations.push_back(lo + f * (hi - lo));  // mM == mol/m^3
  }

  dsp::CalibrationCurve curve =
      calibrate_seeded(requirement.target, concentrations, run_id_base);
  // Noise-aware linearity tolerance: with sigma_b of blank noise on every
  // point, residuals below ~2.5 sigma are indistinguishable from noise.
  double tolerance = 0.07;
  if (curve.blank_count() >= 2) {
    const double span =
        util::max_value(curve.responses()) - util::min_value(curve.responses());
    if (span > 0.0) {
      tolerance = std::clamp(2.5 * curve.blank_sigma() / span, 0.07, 0.20);
    }
  }
  const dsp::LinearRange range = curve.linear_range(tolerance);
  const util::LinearFit fit = range.found ? range.fit : curve.fit();

  v.sensitivity_uA_mM_cm2 =
      util::sensitivity_to_uA_per_mM_cm2(fit.slope / pad_area_m2_);
  v.lod_uM = util::concentration_to_uM(curve.lod_concentration(0.07));
  v.linear_found = range.found;
  if (range.found) {
    v.linear_lo_mM = range.c_low;
    v.linear_hi_mM = range.c_high;
  }
  v.r_squared = fit.r_squared;

  // Tolerate 50% slack on the LOD: it is a noise-derived statistic estimated
  // from a handful of blanks.
  v.meets_lod = v.lod_uM <= 1.5 * requirement.effective_lod_uM();
  v.covers_range = range.found && range.c_low <= lo * 1.05 + 1e-12 &&
                   range.c_high >= hi * 0.95;
  return v;
}

ValidationReport ElaboratedPlatform::validate_panel(const PanelSpec& panel) {
  const std::size_t n = panel.targets.size();
  ValidationReport report;
  report.targets.resize(n);

  // Reserve run-id blocks in panel order -- exactly the ids the sequential
  // loop would consume -- then group targets by electrode: runs on one
  // electrode share its probe and front-end sample stream and stay
  // sequential in panel order, while distinct electrodes are independent
  // and validate concurrently.
  const std::size_t n_points =
      static_cast<std::size_t>(std::max(options_.calibration_points, 3));
  std::vector<std::uint64_t> bases(n);
  for (std::size_t i = 0; i < n; ++i) {
    bases[i] = engine_.reserve_run_ids(calibration_run_count(n_points));
  }
  std::vector<std::vector<std::size_t>> groups;
  std::map<std::size_t, std::size_t> group_of_electrode;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t e = electrode_of(panel.targets[i].target);
    const auto [it, inserted] = group_of_electrode.try_emplace(e, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }

  const sim::BatchRunner runner(options_.parallelism);
  runner.run(groups.size(), [&](std::size_t g) {
    for (std::size_t i : groups[g]) {
      report.targets[i] = validate_target_seeded(panel.targets[i], bases[i]);
    }
  });
  return report;
}

sim::PanelScanResult ElaboratedPlatform::scan(
    std::span<const std::pair<bio::TargetId, double>> concentrations) {
  for (const auto& [target, c] : concentrations) {
    const std::size_t e = electrode_of(target);
    probes_[e]->set_bulk_concentration(bio::to_string(target), c);
  }
  std::vector<sim::Channel> channels;
  std::vector<sim::ChannelProtocol> protocols;
  std::vector<afe::AnalogFrontEnd*> frontends;
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    channels.push_back(sim::Channel{probes_[i].get(), &runtimes_[i].electrode});
    protocols.push_back(runtimes_[i].protocol);
    frontends.push_back(&runtimes_[i].frontend);
  }
  afe::AnalogMux mux(mux_model_);
  return engine_.run_panel(channels, protocols, frontends, mux,
                           options_.parallelism);
}

}  // namespace idp::plat
