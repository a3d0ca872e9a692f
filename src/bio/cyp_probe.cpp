/// \file cyp_probe.cpp
/// Cytochrome P450 probe implementation: Michaelis-Menten drug turnover
/// mapped to the two-electron reduction current of Eq. 4.

#include "bio/cyp_probe.hpp"

#include <algorithm>
#include <cmath>

#include "util/constants.hpp"
#include "util/error.hpp"

namespace idp::bio {

namespace {

chem::Grid1D drug_grid(const CypProbeParams& p) {
  return chem::Grid1D::expanding(2.0e-6, 1.15, p.nernst_layer);
}

}  // namespace

double derive_kcat(const CypProbeParams& probe, const CypTargetParams& target) {
  util::require(!probe.targets.empty(), "probe has no targets");
  util::require(target.sensitivity > 0.0 && target.km > 0.0,
                "invalid target calibration");
  const double coverage_k =
      probe.coverage / static_cast<double>(probe.targets.size());
  util::require(coverage_k > 0.0, "coverage must be positive");
  // Kinetic regime, fully reduced film at the peak: the catalytic peak
  // current per area is  i/A = n F kcat Gamma_k C / km  for C << km, so
  //   kcat = S km / (n F Gamma_k).
  return target.sensitivity * target.km /
         (CypProbe::kElectronsPerTurnover * util::kFaraday * coverage_k);
}

CypProbe::CypProbe(CypProbeParams params) : params_(std::move(params)) {
  util::require(params_.area > 0.0, "area must be positive");
  util::require(params_.coverage > 0.0, "coverage must be positive");
  util::require(params_.ks > 0.0, "ks must be positive");
  util::require(!params_.targets.empty(), "CYP probe needs >= 1 target");

  const double coverage_k =
      params_.coverage / static_cast<double>(params_.targets.size());
  states_.reserve(params_.targets.size());
  for (const auto& t : params_.targets) {
    TargetState s{
        .params = t,
        .heme = chem::RedoxCouple{.name = params_.isoform + "/" + t.drug,
                                  .n = 1,
                                  .e0 = t.e0_red,
                                  .k0 = 0.0,  // unused for surface kinetics
                                  .alpha = params_.alpha},
        .kcat = derive_kcat(params_, t),
        .coverage = coverage_k,
        .theta_red = 0.0,
        .drug = chem::DiffusionField(drug_grid(params_), t.d_drug, 0.0),
        .bulk = 0.0,
    };
    s.drug.set_bulk_concentration(0.0);
    states_.push_back(std::move(s));
  }
  calibrate_turnover();
}

double CypProbe::cv_response(std::size_t k, double c) {
  TargetState& target = states_[k];
  // Pristine state: only target k present, at concentration c.
  for (auto& s : states_) {
    s.theta_red = 0.0;
    s.drug.fill(&s == &target ? c : 0.0);
    s.drug.set_bulk_concentration(&s == &target ? c : 0.0);
  }
  const double e0 = target.params.e0_red;
  const double e_start = e0 + 0.30;
  const double e_stop = e0 - 0.30;
  const double rate = 0.020;  // the cell-faithful 20 mV/s
  const double dt = 0.020;    // 0.4 mV per step
  std::vector<double> es, is;
  const auto n_sweep =
      static_cast<std::size_t>((e_start - e_stop) / (rate * dt)) + 2;
  es.reserve(n_sweep);
  is.reserve(n_sweep);
  double e = e_start;
  while (e > e_stop) {
    is.push_back(step(e, dt) - params_.background_current);
    es.push_back(e);
    e -= rate * dt;
  }
  // Pre-wave baseline from the leading 15% of the sweep, extrapolated.
  const std::size_t n_base = std::max<std::size_t>(3, es.size() * 15 / 100);
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < n_base; ++i) {
    sx += es[i];
    sy += is[i];
    sxx += es[i] * es[i];
    sxy += es[i] * is[i];
  }
  const double nb = static_cast<double>(n_base);
  const double denom = nb * sxx - sx * sx;
  const double slope = denom != 0.0 ? (nb * sxy - sx * sy) / denom : 0.0;
  const double intercept = (sy - slope * sx) / nb;
  // Mean corrected response around e0 -- the same statistic the dsp layer
  // extracts, so the calibration transfers exactly.
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < es.size(); ++i) {
    if (std::fabs(es[i] - e0) > 0.05) continue;
    const double base = slope * es[i] + intercept;
    sum += -(is[i] - base);  // cathodic = negative current
    ++count;
  }
  // Restore the stored bulks and rest state.
  reset();
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

void CypProbe::calibrate_turnover() {
  for (std::size_t k = 0; k < states_.size(); ++k) {
    TargetState& s = states_[k];
    const double c_cal = s.params.calibration_mid_concentration;
    if (c_cal <= 0.0) continue;
    const double i_target = s.params.sensitivity * params_.area * c_cal;
    // The surface (heme) wave is concentration independent; sensitivity is
    // defined on the blank-subtracted response, so calibrate the increment.
    const double blank = cv_response(k, 0.0);
    auto objective = [&](double kcat_trial) {
      s.kcat = kcat_trial;
      return cv_response(k, c_cal) - blank - i_target;
    };
    double k0 = s.kcat;
    double f0 = objective(k0);
    double k1 = std::clamp(k0 * (f0 < 0.0 ? 2.0 : 0.5), 1e-4, 1e4);
    for (int iter = 0; iter < 10; ++iter) {
      const double f1 = objective(k1);
      if (std::fabs(f1) <= 0.02 * i_target) break;
      const double denom = f1 - f0;
      if (std::fabs(denom) < 1e-30) break;
      // Keep the iterate physical; cap at an (unrealistically fast) 1e4/s
      // so diffusion-limited targets converge to the transport ceiling.
      const double k2 =
          std::clamp(k1 - f1 * (k1 - k0) / denom, 1e-4, 1e4);
      k0 = k1;
      f0 = f1;
      k1 = k2;
      if (k0 == k1) break;
    }
    s.kcat = k1;
  }
}

double CypProbe::kcat(std::size_t k) const {
  util::require(k < states_.size(), "target index out of range");
  return states_[k].kcat;
}

const chem::RedoxCouple& CypProbe::heme(std::size_t k) const {
  util::require(k < states_.size(), "target index out of range");
  return states_[k].heme;
}

double CypProbe::coverage(std::size_t k) const {
  util::require(k < states_.size(), "target index out of range");
  return states_[k].coverage;
}

double CypProbe::bulk_concentration(std::size_t k) const {
  util::require(k < states_.size(), "target index out of range");
  return states_[k].bulk;
}

std::vector<std::string> CypProbe::targets() const {
  std::vector<std::string> names;
  names.reserve(states_.size());
  for (const auto& s : states_) names.push_back(s.params.drug);
  return names;
}

void CypProbe::apply_sensor_state(const fault::SensorState& state) {
  util::require(state.enzyme_activity > 0.0 &&
                    state.membrane_transmission > 0.0,
                "sensor state must keep activity and transmission positive");
  enzyme_activity_ = state.enzyme_activity;
  for (auto& s : states_) {
    // set_diffusivity_scale no-ops when the scale is unchanged.
    s.drug.set_diffusivity_scale(state.membrane_transmission);
  }
}

void CypProbe::set_bulk_concentration(const std::string& target, double c) {
  util::require(c >= 0.0, "negative concentration");
  for (auto& s : states_) {
    if (s.params.drug == target) {
      s.bulk = c;
      s.drug.set_bulk_concentration(c);
      return;
    }
  }
  util::require(false, "unknown target '" + target + "' for " + params_.isoform);
}

double CypProbe::step(double e, double dt) {
  double current = params_.background_current;
  for (auto& s : states_) {
    // Surface electron transfer (Laviron): exact exponential update of the
    // reduced fraction keeps the step stable at any dt.
    const chem::SurfaceRates rates = chem::laviron_rates(s.heme, params_.ks, e);
    const double k_sum = rates.k_ox + rates.k_red;
    const double theta_inf = k_sum > 0.0 ? rates.k_red / k_sum : s.theta_red;
    const double theta_new =
        theta_inf + (s.theta_red - theta_inf) * std::exp(-k_sum * dt);
    const double dtheta_dt = (theta_new - s.theta_red) / dt;
    s.theta_red = theta_new;

    // Faradaic surface current: reduction (theta rising) is cathodic (< 0).
    // Denatured hemes (enzyme_activity_ < 1) neither exchange electrons nor
    // turn substrate over; 1.0 multiplies out exactly.
    current -= util::kFaraday * params_.area * s.coverage * dtheta_dt *
               enzyme_activity_;

    // Catalytic turnover (EC'): the reduced film consumes drug arriving at
    // the surface. Linearised Michaelis-Menten folded into the implicit
    // boundary of the drug's diffusion field.
    const double c_surf = s.drug.at_electrode();
    const double k_eff = s.kcat * s.coverage * s.theta_red *
                         enzyme_activity_ / (s.params.km + c_surf);
    s.drug.set_electrode_rate(k_eff);
    const double j_drug = s.drug.step(dt);
    current -= kElectronsPerTurnover * util::kFaraday * params_.area * j_drug;
  }
  return current;
}

void CypProbe::reset() {
  for (auto& s : states_) {
    s.theta_red = 0.0;  // film starts fully oxidised (rest potential > E0)
    s.drug.fill(s.bulk);
    s.drug.set_bulk_concentration(s.bulk);
  }
}

double CypProbe::reduced_fraction(std::size_t k) const {
  util::require(k < states_.size(), "target index out of range");
  return states_[k].theta_red;
}

double CypProbe::reduction_potential(std::size_t k) const {
  util::require(k < states_.size(), "target index out of range");
  return states_[k].params.e0_red;
}

}  // namespace idp::bio
