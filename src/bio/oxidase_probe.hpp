/// \file oxidase_probe.hpp
/// Membrane oxidase biosensor model (Eq. 1-3 of the paper):
///
///   FAD + substrate  -> FADH2 + product          (enzyme, Michaelis-Menten)
///   FADH2 + O2       -> H2O2 + FAD               (fast, O2 in excess)
///   2 H2O2           -> 2 H2O + O2 + 4e-         (electrode, ~+650 mV)
///
/// The enzyme is immobilised in a membrane of thickness L on the electrode;
/// substrate diffuses in from the stirred bulk through a Nernst layer, H2O2
/// is generated inside the membrane and oxidised at the electrode (n = 2 per
/// H2O2). The t90 ~ 30 s response of Fig. 3 emerges from L^2/D.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bio/enzyme.hpp"
#include "bio/probe.hpp"
#include "chem/batched_diffusion.hpp"
#include "chem/redox.hpp"

namespace idp::bio {

/// Construction parameters for an oxidase membrane probe.
struct OxidaseProbeParams {
  std::string name = "oxidase";
  std::string target = "substrate";
  double area = 0.23e-6;             ///< electrode area [m^2]
  double applied_potential = 0.65;   ///< Table I operating potential [V]

  /// Target calibrated sensitivity [A / (mol m^-3) / m^2]; vmax is derived
  /// from it (see derive_vmax). Table III values go through
  /// util::sensitivity_from_uA_per_mM_cm2.
  double sensitivity = 0.277;
  double km = 10.0;                  ///< apparent Michaelis constant [mol/m^3]
  /// Mid-point of the concentration range the quoted sensitivity was
  /// regressed over [mol/m^3]; compensates the Michaelis-Menten saturation
  /// so the *measured* calibration slope lands on `sensitivity`. Zero
  /// disables the correction (calibrates the initial slope instead).
  double calibration_mid_concentration = 0.0;

  /// Membrane stack: an outer substrate-limiting film with the enzyme
  /// loaded in the inner `enzyme_fraction` of the membrane, against the
  /// electrode -- the classic layered glucose-sensor construction. The
  /// membrane permeability D/L sets (with the enzyme headroom) the
  /// sensitivity, and L^2/D the ~30 s response of Fig. 3.
  double membrane_thickness = 50e-6; ///< total membrane [m]
  double enzyme_fraction = 0.4;      ///< inner fraction holding the enzyme
  double nernst_layer = 60e-6;       ///< stagnant solution layer [m]
  double d_substrate_membrane = 9.0e-11;  ///< hindered diffusivity [m^2/s]
  double d_substrate_bulk = 6.7e-10;
  double d_peroxide_membrane = 2.0e-10;
  double d_peroxide_bulk = 1.43e-9;

  /// Heterogeneous H2O2 oxidation couple; e0 defaults to 200 mV below the
  /// applied potential so the probe saturates right at its Table I value.
  std::optional<chem::RedoxCouple> peroxide_couple;

  double background_current = 2.0e-9;  ///< blank faradaic current Vb [A]
  double blank_noise_rms = 1.0e-9;     ///< intrinsic blank fluctuation [A]

  /// Extra gain from nanostructuration (multiplies enzyme loading); 1 for
  /// the already-nanostructured Table III calibration, <1 to emulate a bare
  /// electrode in the ablation bench.
  double loading_gain = 1.0;

  std::size_t membrane_grid_nodes = 26;
  double grid_beta = 1.18;
};

/// Analytic first guess for the volumetric vmax [mol m^-3 s^-1] that yields
/// the requested steady-state sensitivity (collection efficiency phi from
/// the membrane geometry; see DESIGN.md section 6). The constructor refines
/// it numerically because at high loading the Thiele modulus shifts H2O2
/// generation toward the membrane/bulk interface and collection drops.
double derive_vmax(const OxidaseProbeParams& p);

/// Concrete oxidase membrane probe (chronoamperometric).
class OxidaseProbe final : public Probe {
 public:
  explicit OxidaseProbe(OxidaseProbeParams params);

  std::unique_ptr<Probe> clone() const override {
    return std::make_unique<OxidaseProbe>(*this);
  }

  const std::string& name() const override { return params_.name; }
  Technique technique() const override { return Technique::kChronoamperometry; }
  double area() const override { return params_.area; }
  std::vector<std::string> targets() const override { return {params_.target}; }
  void set_bulk_concentration(const std::string& target, double c) override;
  double step(double e, double dt) override;
  void reset() override;
  double blank_current() const override { return params_.background_current; }
  double blank_noise_rms() const override { return params_.blank_noise_rms; }

  /// Degradation hooks: enzyme_activity scales the Michaelis-Menten rate
  /// (denatured enzyme), membrane_transmission scales the substrate
  /// diffusivity (fouling film throttles ingress *and* slows the
  /// response). Identity states are exact no-ops.
  void apply_sensor_state(const fault::SensorState& state) override;

  /// Table I operating potential for this oxidase.
  double applied_potential() const { return params_.applied_potential; }
  /// Calibrated Michaelis-Menten law (for white-box tests and the
  /// panel-level lane batcher, which replicates the probe's reaction loop).
  const MichaelisMenten& kinetics() const { return kinetics_; }
  /// Substrate / peroxide concentration at the electrode [mol/m^3].
  double substrate_at_electrode() const {
    return fields_.at_electrode(kSubstrateLane);
  }
  double peroxide_at_electrode() const {
    return fields_.at_electrode(kPeroxideLane);
  }

  // --- lane-batching hooks ---------------------------------------------
  // OxidaseLaneBatch steps W probes in lockstep through one SoA solve; it
  // reads the calibrated state through these accessors and must reproduce
  // step() bit-for-bit per lane.
  const OxidaseProbeParams& params() const { return params_; }
  const chem::RedoxCouple& peroxide_couple() const { return peroxide_couple_; }
  const chem::Grid1D& grid() const { return fields_.grid(); }
  double bulk_concentration() const { return bulk_concentration_; }
  double enzyme_activity() const { return enzyme_activity_; }

  /// Substrate lane index inside the internal 2-lane batch (the probe's own
  /// step() is the 1-channel case of the batched kernel).
  static constexpr std::size_t kSubstrateLane = 0;
  static constexpr std::size_t kPeroxideLane = 1;

 private:
  /// Steady-state current at bulk concentration c with the current kinetics
  /// (noise-free, used by the constructor's secant calibration).
  double steady_current_at(double c);
  /// Refine vmax so the secant sensitivity at the calibration midpoint
  /// matches params_.sensitivity (no-op when the midpoint is zero).
  void calibrate_loading();

  OxidaseProbeParams params_;
  chem::RedoxCouple peroxide_couple_;
  MichaelisMenten kinetics_;
  /// Substrate (lane 0) + peroxide (lane 1) stepped in lockstep through the
  /// SoA batched solve; the two species share the grid and are
  /// data-independent within a step (sources are computed before either
  /// advances), so every single-probe measurement -- campaign, serve,
  /// cohort -- exercises the batched kernel.
  chem::BatchedDiffusionField fields_;
  double bulk_concentration_ = 0.0;
  double enzyme_activity_ = 1.0;  ///< fault-state activity fraction
};

}  // namespace idp::bio
