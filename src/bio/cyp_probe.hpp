/// \file cyp_probe.hpp
/// Cytochrome P450 film probe (Eq. 4 of the paper):
///
///   substrate + O2 + 2H+ + 2e-  ->  product + H2O
///
/// The CYP is surface-confined (protein-film voltammetry): the heme centre
/// exchanges electrons directly with the electrode (Laviron kinetics) and,
/// once reduced, turns the drug over catalytically (EC' mechanism). Each
/// target drug contributes a reduction wave at its Table II potential whose
/// height scales with concentration -- the "electrochemical signature" the
/// paper uses for multi-target detection with a single probe (e.g. CYP2B4
/// resolving benzphetamine at -250 mV and aminopyrine at -400 mV).
#pragma once

#include <string>
#include <vector>

#include "bio/probe.hpp"
#include "chem/diffusion.hpp"
#include "chem/redox.hpp"

namespace idp::bio {

/// Per-drug parameters of a CYP film.
struct CypTargetParams {
  std::string drug = "drug";
  double e0_red = -0.4;      ///< Table II reduction potential [V vs Ag/AgCl]
  /// Calibrated peak-current sensitivity [A / (mol m^-3) / m^2].
  double sensitivity = 0.02;
  double km = 3.0;           ///< apparent Michaelis constant [mol/m^3]
  double d_drug = 5.0e-10;   ///< drug diffusivity [m^2/s]
  /// Linear-range midpoint the sensitivity is calibrated at [mol/m^3];
  /// zero keeps the analytic kcat estimate (no numeric refinement).
  double calibration_mid_concentration = 0.0;
};

/// Construction parameters for a CYP probe (one isoform, >= 1 targets).
struct CypProbeParams {
  std::string isoform = "CYP";
  double area = 0.23e-6;       ///< electrode area [m^2]
  double coverage = 5.0e-7;    ///< total heme surface coverage [mol/m^2]
  double ks = 4.0;             ///< Laviron surface ET rate [1/s]
  double alpha = 0.5;
  double background_current = 5.0e-9;
  double blank_noise_rms = 2.0e-9;
  double nernst_layer = 50e-6;   ///< stirred-cell drug supply layer [m]
  std::vector<CypTargetParams> targets;
};

/// Derive the catalytic turnover kcat [1/s] that produces the requested
/// peak-current sensitivity for one target (kinetic regime; see DESIGN.md).
double derive_kcat(const CypProbeParams& probe, const CypTargetParams& target);

/// Concrete CYP450 film probe (cyclic voltammetry).
class CypProbe final : public Probe {
 public:
  /// Eq. 4: two electrons per substrate turnover.
  static constexpr int kElectronsPerTurnover = 2;

  explicit CypProbe(CypProbeParams params);

  std::unique_ptr<Probe> clone() const override {
    return std::make_unique<CypProbe>(*this);
  }

  const std::string& name() const override { return params_.isoform; }
  Technique technique() const override { return Technique::kCyclicVoltammetry; }
  double area() const override { return params_.area; }
  std::vector<std::string> targets() const override;
  void set_bulk_concentration(const std::string& target, double c) override;
  double step(double e, double dt) override;
  void reset() override;
  double blank_current() const override { return params_.background_current; }
  double blank_noise_rms() const override { return params_.blank_noise_rms; }

  /// Degradation hooks: enzyme_activity scales the catalytically active
  /// heme population (surface ET *and* turnover), membrane_transmission
  /// scales the drug-supply diffusivity (film fouling). Identity states
  /// are exact no-ops.
  void apply_sensor_state(const fault::SensorState& state) override;

  /// Reduced fraction of the heme sub-population serving target k.
  double reduced_fraction(std::size_t k) const;
  /// Table II reduction potential of target k.
  double reduction_potential(std::size_t k) const;
  std::size_t target_count() const { return states_.size(); }

  /// Calibrated turnover of target k [1/s] (for white-box tests and the
  /// lane batcher).
  double kcat(std::size_t k) const;

  // --- lane-batching hooks ---------------------------------------------
  // CypLaneBatch steps W probes in lockstep through one SoA solve (one lane
  // per target); it reads the calibrated state through these accessors and
  // must reproduce step() bit-for-bit per probe.
  const CypProbeParams& params() const { return params_; }
  /// Shared grid of every target's drug field.
  const chem::Grid1D& grid() const { return states_.front().drug.grid(); }
  /// Surface couple of target k's heme sub-population.
  const chem::RedoxCouple& heme(std::size_t k) const;
  /// Sub-population coverage of target k [mol/m^2].
  double coverage(std::size_t k) const;
  /// Configured bulk concentration of target k [mol/m^3].
  double bulk_concentration(std::size_t k) const;

 private:
  struct TargetState {
    CypTargetParams params;
    chem::RedoxCouple heme;        ///< surface couple at the drug's potential
    double kcat = 0.0;             ///< calibrated turnover [1/s]
    double coverage = 0.0;         ///< sub-population coverage [mol/m^2]
    double theta_red = 0.0;        ///< reduced fraction
    chem::DiffusionField drug;     ///< drug supply field
    double bulk = 0.0;
  };

  /// Baseline-corrected cathodic response of target k at concentration c on
  /// a standard noise-free 20 mV/s sweep (used for calibration).
  double cv_response(std::size_t k, double c);
  /// Secant-calibrate each target's kcat so the standard-sweep response at
  /// the linear-range midpoint equals sensitivity * area * c.
  void calibrate_turnover();

  CypProbeParams params_;
  std::vector<TargetState> states_;
  double enzyme_activity_ = 1.0;  ///< fault-state active-heme fraction
};

}  // namespace idp::bio
