/// \file direct_probe.hpp
/// Direct-oxidation "probe": a bare (enzyme-free) working electrode sensing
/// a directly electroactive molecule (dopamine, etoposide). Section II-C
/// notes these species oxidise at a polarised electrode *without* any
/// enzyme -- which is why a blank working electrode cannot serve as a CDS
/// reference for them, and why they interfere with co-chamber
/// chronoamperometry.
#pragma once

#include <string>
#include <vector>

#include "bio/probe.hpp"
#include "chem/redox_system.hpp"

namespace idp::bio {

/// Construction parameters for a direct-oxidation probe.
struct DirectProbeParams {
  std::string name = "bare electrode";
  std::string target = "dopamine";
  double area = 0.23e-6;            ///< [m^2]
  double applied_potential = 0.55;  ///< operating potential [V vs Ag/AgCl]
  chem::RedoxCouple couple{
      .name = "direct", .n = 2, .e0 = 0.20, .k0 = 1.0e-5, .alpha = 0.5};
  double d_target = 6.0e-10;        ///< diffusivity [m^2/s]
  double nernst_layer = 50e-6;      ///< stagnant layer to the stirred bulk [m]
  double background_current = 3.0e-9;
  double blank_noise_rms = 2.0e-9;
};

/// Diffusion-limited amperometric sensing of a directly electroactive
/// molecule (no biological recognition element, hence no selectivity).
class DirectProbe final : public Probe {
 public:
  explicit DirectProbe(DirectProbeParams params);

  std::unique_ptr<Probe> clone() const override {
    return std::make_unique<DirectProbe>(*this);
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
  /// A bare blank electrode oxidises the target just as well (Section II-C).
  double blank_signal_fraction() const override { return 0.9; }

  double applied_potential() const { return params_.applied_potential; }
  const DirectProbeParams& params() const { return params_; }
  /// The redox couple's two diffusion fields and their bulk values.
  const chem::SolutionRedoxSystem& system() const { return system_; }

 private:
  DirectProbeParams params_;
  chem::SolutionRedoxSystem system_;
  double bulk_ = 0.0;
};

}  // namespace idp::bio
