/// \file diffusion.hpp
/// Implicit (backward-Euler) finite-volume solver for 1-D diffusion with
/// reaction sources -- the workhorse behind every simulated electrode.
///
/// The formulation is mass-conservative: with sealed boundaries the total
/// amount of substance is preserved to solver precision, which the property
/// tests check. The electrode boundary supports simultaneously
///   * a first-order heterogeneous consumption (flux_out = k_het * c(0)),
///     used for species oxidised/reduced at the electrode, and
///   * an injection flux (mol m^-2 s^-1), used for species *produced* at the
///     electrode (e.g. the reduced half of a redox couple).
/// The far boundary is either a Dirichlet bulk reservoir or a no-flux wall.
#pragma once

#include <span>
#include <vector>

#include "chem/grid.hpp"

namespace idp::chem {

/// Far-boundary condition of a diffusion field.
enum class FarBoundary {
  kBulkReservoir,  ///< Dirichlet: concentration pinned to bulk value
  kSealed,         ///< no-flux wall (used by conservation tests / chambers)
};

/// Concentration field of one species on a 1-D grid, advanced implicitly.
class DiffusionField {
 public:
  /// \param grid          spatial grid (node 0 = electrode surface)
  /// \param diffusivity   per-node diffusivity [m^2/s]; must match grid size.
  ///                      Layered media (membrane vs bulk) use different
  ///                      values per node; interface values use harmonic
  ///                      means so flux continuity holds.
  /// \param c_init        initial uniform concentration [mol/m^3]
  DiffusionField(Grid1D grid, std::vector<double> diffusivity, double c_init);

  /// Convenience: uniform diffusivity everywhere.
  DiffusionField(Grid1D grid, double diffusivity, double c_init);

  // --- boundary & source configuration (persist across steps) -------------
  void set_far_boundary(FarBoundary fb) {
    if (fb != far_) bands_dt_ = 0.0;
    far_ = fb;
  }
  /// Bulk reservoir concentration (Dirichlet value). Also the value new
  /// solution entering the domain carries.
  void set_bulk_concentration(double c);
  /// First-order heterogeneous rate constant at the electrode [m/s].
  void set_electrode_rate(double k_het);
  /// Production flux of this species at the electrode [mol m^-2 s^-1].
  void set_electrode_injection(double flux);
  /// Volumetric source for the *next* step [mol m^-3 s^-1] per node; cleared
  /// automatically after each step.
  void set_source(std::span<const double> source_per_node);

  /// Reset the whole profile to a uniform concentration.
  void fill(double c);

  /// Uniformly scale the effective diffusivity to `scale` times the
  /// constructed base values (must be > 0). Models a fouling film whose
  /// growing diffusion resistance throttles transport without rebuilding
  /// the field: the concentration profile and boundary state persist.
  /// Scale 1 restores the exact constructed coefficients.
  void set_diffusivity_scale(double scale);
  double diffusivity_scale() const { return d_scale_; }

  // --- time stepping -------------------------------------------------------
  /// Advance by dt seconds; returns the electrode *consumption* flux
  /// J = k_het * c(0, t+dt) in mol m^-2 s^-1 (>= 0).
  double step(double dt);

  // --- observers -----------------------------------------------------------
  double at_electrode() const { return c_.front(); }
  double at(std::size_t i) const { return c_[i]; }
  std::size_t size() const { return c_.size(); }
  const Grid1D& grid() const { return grid_; }
  const std::vector<double>& concentrations() const { return c_; }
  /// Integral of c over the domain [mol/m^2]; exact FV sum.
  double total_per_area() const;

 private:
  /// Shared validation + buffer setup of both constructors (grid_ and d_
  /// must already be initialised).
  void init(double c_init);
  /// Recompute d_face_ from the base diffusivities and the current scale.
  void rebuild_face_diffusivity();
  /// Assemble the step-invariant band coefficients for time step dt.
  void assemble_bands(double dt);

  Grid1D grid_;
  std::vector<double> d_;        ///< per-node *base* diffusivity
  std::vector<double> d_face_;   ///< harmonic-mean interface diffusivity
                                 ///< (includes the fouling scale)
  double d_scale_ = 1.0;         ///< uniform scale on the base diffusivity
  std::vector<double> c_;
  std::vector<double> source_;
  bool source_set_ = false;

  FarBoundary far_ = FarBoundary::kBulkReservoir;
  double c_bulk_ = 0.0;
  double k_het_ = 0.0;
  double injection_ = 0.0;

  // persistent buffers for the tridiagonal assembly and solve; step() reuses
  // them so steady-state stepping performs zero heap allocations
  std::vector<double> lower_, diag_, upper_, rhs_, scratch_;
  /// The bands depend on (dt, diffusivity scale, far boundary) only, except
  /// for the electrode row's k_het term; they are assembled once for
  /// bands_dt_ and kept until one of those changes (0 = stale).
  double bands_dt_ = 0.0;
  double a01_ = 0.0;  ///< electrode-row coupling dt*D_face/(h*w) at bands_dt_
};

/// Build a per-node diffusivity vector for a membrane+bulk grid: nodes inside
/// the membrane get d_membrane, the rest d_bulk.
std::vector<double> layered_diffusivity(const Grid1D& grid, double d_membrane,
                                        double d_bulk);

}  // namespace idp::chem
