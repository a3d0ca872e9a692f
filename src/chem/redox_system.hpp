/// \file redox_system.hpp
/// A diffusing redox couple coupled to Butler-Volmer electrode kinetics:
/// the canonical "textbook CV" system, used both as a validation vehicle
/// for the solver (Cottrell, Randles-Sevcik) and as the model for directly
/// electroactive species (dopamine, etoposide) that the paper singles out
/// as defeating blank-electrode correction.
#pragma once

#include "chem/diffusion.hpp"
#include "chem/grid.hpp"
#include "chem/redox.hpp"

namespace idp::chem {

/// Configuration for a SolutionRedoxSystem.
struct SolutionRedoxConfig {
  RedoxCouple couple;
  double area = 0.23e-6;        ///< electrode area [m^2]
  double d_red = 6.5e-10;       ///< diffusivity of the reduced form [m^2/s]
  double d_ox = 6.5e-10;        ///< diffusivity of the oxidised form [m^2/s]
  double c_red_bulk = 1.0;      ///< bulk concentration of R [mol/m^3]
  double c_ox_bulk = 0.0;       ///< bulk concentration of O [mol/m^3]
  double grid_h0 = 0.5e-6;      ///< first grid spacing [m]
  double grid_beta = 1.10;      ///< grid expansion factor
  double domain_length = 400e-6;  ///< diffusion domain [m]
};

/// Two diffusion fields (R and O) sharing a grid, exchanging matter at the
/// electrode according to Butler-Volmer kinetics. Advancing by dt at a given
/// electrode potential returns the faradaic current (anodic positive).
class SolutionRedoxSystem {
 public:
  explicit SolutionRedoxSystem(const SolutionRedoxConfig& config);

  /// Advance by dt [s] at electrode potential e [V vs Ag/AgCl]; returns the
  /// faradaic current [A], anodic positive.
  double step(double e, double dt);

  /// Reset both profiles to their bulk values.
  void reset();

  /// Change the bulk concentration of the reduced form (re-equilibrates the
  /// reservoir boundary; the profile itself relaxes by diffusion).
  void set_bulk_red(double c);
  /// Change the bulk concentration of the oxidised form.
  void set_bulk_ox(double c);

  double red_at_electrode() const { return red_.at_electrode(); }
  double ox_at_electrode() const { return ox_.at_electrode(); }
  const RedoxCouple& couple() const { return config_.couple; }
  double area() const { return config_.area; }
  /// Current configuration, bulk concentrations included.
  const SolutionRedoxConfig& config() const { return config_; }
  /// The grid both fields share (node 0 = electrode surface).
  const Grid1D& grid() const { return red_.grid(); }

 private:
  SolutionRedoxConfig config_;
  DiffusionField red_;
  DiffusionField ox_;
};

}  // namespace idp::chem
