/// \file cyp_batch.hpp
/// Lockstep lane batch of W CYP450 film probes: the cyclic-voltammetry
/// feeder of the SoA batched diffusion kernel.
///
/// Replayed service logs and panels carry many independent CYP reads on the
/// same drug-supply geometry (every CYP film's drug field lives on the
/// stirred-cell Nernst-layer grid), so their sweeps solve one tridiagonal
/// system per (probe, target) per time step on node-identical grids.
/// CypLaneBatch packs those systems into one BatchedDiffusionField with one
/// lane per (probe, target) -- probe p's targets occupy consecutive lanes,
/// in target order, so a dual-target film (CYP2B4: benzphetamine +
/// aminopyrine) is simply a probe with two lanes -- and replicates
/// CypProbe::step() per probe bit-for-bit: same Laviron update of each heme
/// sub-population, same enzyme-activity and fouling handling, same
/// linearised Michaelis-Menten electrode rate, and the same current
/// accumulation order (background, then surface and catalytic terms per
/// target in target order). Lanes never exchange data, so lane order
/// cannot leak into results.
#pragma once

#include <span>
#include <vector>

#include "bio/cyp_probe.hpp"
#include "chem/batched_diffusion.hpp"
#include "chem/redox.hpp"
#include "fault/sensor_state.hpp"

namespace idp::bio {

/// W CYP probes advanced in lockstep through one SoA solve.
///
/// Construction mirrors what the scalar measurement path does per probe
/// before a run (apply_sensor_state + reset): fully oxidised films, drug
/// profiles at each target's configured bulk concentration, fouling scale
/// and enzyme activity from the sensor state. The probes themselves are not
/// advanced -- the batch owns its own film and field state.
class CypLaneBatch {
 public:
  /// All probes must share node-identical drug grids (enforced); sensor
  /// states must keep activity and transmission positive, as
  /// apply_sensor_state requires. `probes.size() == sensors.size() >= 1`.
  CypLaneBatch(std::span<CypProbe* const> probes,
               std::span<const fault::SensorState* const> sensors);

  /// True when the two probes can share a lane batch: node-identical grids.
  static bool compatible(const CypProbe& a, const CypProbe& b) {
    return a.grid().nodes() == b.grid().nodes();
  }

  /// Advance every probe by dt under its own electrode potential e[p];
  /// writes the faradaic current of probe p to i_out[p]. Bitwise identical
  /// per probe to CypProbe::step(e[p], dt) on a probe in the same state.
  /// Allocation-free.
  void step(std::span<const double> e, double dt, std::span<double> i_out);

  /// Solver lanes (one per probe target).
  std::size_t lanes() const { return fields_.lanes(); }
  /// Reduced heme fraction of probe p's target k.
  double reduced_fraction(std::size_t p, std::size_t k) const {
    return theta_[first_lane_[p] + k];
  }

 private:
  std::size_t width_;
  chem::BatchedDiffusionField fields_;
  std::vector<std::size_t> first_lane_;  ///< probe p owns [first[p], first[p+1])

  // per-probe state, copied from the probes at construction
  std::vector<double> ks_;          ///< Laviron surface ET rate
  std::vector<double> activity_;    ///< sensor enzyme-activity fraction
  std::vector<double> background_;  ///< background current
  std::vector<double> n_fa_;        ///< n * Faraday * area (catalytic term)

  // per-lane (probe, target) state
  std::vector<chem::RedoxCouple> heme_;
  std::vector<double> fa_coverage_;    ///< Faraday * area * coverage
  std::vector<double> kcat_coverage_;  ///< kcat * coverage
  std::vector<double> km_;
  std::vector<double> theta_;          ///< reduced fraction
  std::vector<double> surface_;        ///< last step's surface current term
};

}  // namespace idp::bio
