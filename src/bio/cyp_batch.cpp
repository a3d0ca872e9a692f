/// \file cyp_batch.cpp
/// CYP lane batch: W film probes, one SoA drug-field solve per step. Every
/// per-lane expression mirrors CypProbe::step op-for-op (products that the
/// scalar path evaluates left to right are precomputed only where they form
/// its leading factors, which leaves every rounding unchanged); only the
/// loop structure and the storage layout differ.

#include "bio/cyp_batch.hpp"

#include <cmath>

#include "util/constants.hpp"
#include "util/error.hpp"

namespace idp::bio {

namespace {

/// Solver lanes the batch needs: one per (probe, target).
std::size_t lane_count(std::span<CypProbe* const> probes) {
  std::size_t lanes = 0;
  for (const CypProbe* probe : probes) {
    util::require(probe != nullptr, "lane batch probe is null");
    lanes += probe->target_count();
  }
  return lanes;
}

}  // namespace

CypLaneBatch::CypLaneBatch(std::span<CypProbe* const> probes,
                           std::span<const fault::SensorState* const> sensors)
    : width_(probes.size()),
      fields_((util::require(!probes.empty() && probes.front() != nullptr,
                             "lane batch needs at least one probe"),
               probes.front()->grid()),
              lane_count(probes)) {
  util::require(sensors.size() == width_, "one sensor state per probe");
  const std::size_t lanes = fields_.lanes();
  first_lane_.reserve(width_ + 1);
  ks_.reserve(width_);
  activity_.reserve(width_);
  background_.reserve(width_);
  n_fa_.reserve(width_);
  heme_.reserve(lanes);
  fa_coverage_.reserve(lanes);
  kcat_coverage_.reserve(lanes);
  km_.reserve(lanes);
  theta_.assign(lanes, 0.0);
  surface_.assign(lanes, 0.0);

  std::size_t lane = 0;
  for (std::size_t p = 0; p < width_; ++p) {
    util::require(sensors[p] != nullptr, "lane batch sensor state is null");
    const CypProbe& probe = *probes[p];
    util::require(compatible(*probes.front(), probe),
                  "lane batch requires node-identical grids");
    const fault::SensorState& sensor = *sensors[p];
    util::require(sensor.enzyme_activity > 0.0 &&
                      sensor.membrane_transmission > 0.0,
                  "sensor state must keep activity and transmission positive");
    const CypProbeParams& params = probe.params();

    first_lane_.push_back(lane);
    ks_.push_back(params.ks);
    activity_.push_back(sensor.enzyme_activity);
    background_.push_back(params.background_current);
    // (n * F) * area: the leading factors of the scalar catalytic term.
    n_fa_.push_back(CypProbe::kElectronsPerTurnover * util::kFaraday *
                    params.area);
    for (std::size_t k = 0; k < probe.target_count(); ++k, ++lane) {
      // Mirror apply_sensor_state + reset: a drug profile at the target's
      // configured bulk, fouling-scaled diffusivity, oxidised film.
      fields_.configure_lane(lane, params.targets[k].d_drug,
                             probe.bulk_concentration(k));
      fields_.set_diffusivity_scale(lane, sensor.membrane_transmission);
      heme_.push_back(probe.heme(k));
      // F * area * coverage and kcat * coverage: the leading factors of the
      // scalar surface and k_eff products.
      fa_coverage_.push_back(util::kFaraday * params.area * probe.coverage(k));
      kcat_coverage_.push_back(probe.kcat(k) * probe.coverage(k));
      km_.push_back(params.targets[k].km);
    }
  }
  first_lane_.push_back(lane);
}

void CypLaneBatch::step(std::span<const double> e, double dt,
                        std::span<double> i_out) {
  util::require(e.size() == width_ && i_out.size() == width_,
                "lane batch span size mismatch");

  // Film update of every (probe, target) lane, then the drug-supply rate it
  // sets at the electrode -- CypProbe::step's per-target body up to the
  // field step.
  for (std::size_t p = 0; p < width_; ++p) {
    const double activity = activity_[p];
    for (std::size_t l = first_lane_[p]; l < first_lane_[p + 1]; ++l) {
      const chem::SurfaceRates rates =
          chem::laviron_rates(heme_[l], ks_[p], e[p]);
      const double k_sum = rates.k_ox + rates.k_red;
      const double theta = theta_[l];
      const double theta_inf = k_sum > 0.0 ? rates.k_red / k_sum : theta;
      const double theta_new =
          theta_inf + (theta - theta_inf) * std::exp(-k_sum * dt);
      const double dtheta_dt = (theta_new - theta) / dt;
      theta_[l] = theta_new;
      surface_[l] = fa_coverage_[l] * dtheta_dt * activity;

      const double c_surf = fields_.at_electrode(l);
      const double k_eff =
          kcat_coverage_[l] * theta_new * activity / (km_[l] + c_surf);
      fields_.set_electrode_rate(l, k_eff);
    }
  }

  fields_.step(dt);

  // Current of each probe in the scalar accumulation order.
  for (std::size_t p = 0; p < width_; ++p) {
    double current = background_[p];
    for (std::size_t l = first_lane_[p]; l < first_lane_[p + 1]; ++l) {
      current -= surface_[l];
      current -= n_fa_[p] * fields_.electrode_flux(l);
    }
    i_out[p] = current;
  }
}

}  // namespace idp::bio
