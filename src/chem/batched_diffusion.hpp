/// \file batched_diffusion.hpp
/// Structure-of-arrays lane batch of independent 1-D diffusion fields that
/// share one grid and step in lockstep through a single batched tridiagonal
/// solve.
///
/// Each lane is a full DiffusionField: its own diffusivity profile, far
/// boundary, bulk value, electrode rate/injection, fouling scale, and
/// volumetric sources. What the lanes share is the *grid geometry* (node
/// positions, control volumes), which is what makes the Thomas sweep
/// vectorizable: every per-node array is stored node-major / lane-minor
/// (`[i*lanes + lane]`), so the elimination recurrence walks nodes in the
/// outer loop while the inner lane loop touches contiguous memory.
///
/// Per lane the assembly and solve are the exact op-for-op arithmetic of
/// DiffusionField::step, so lane values are bitwise identical to a scalar
/// field advanced with the same inputs, regardless of lane count or lane
/// order -- the kernel-equivalence property test pins this. The workspace
/// honours the zero-allocation steady-state contract: all buffers are sized
/// at construction and step() never touches the heap.
#pragma once

#include <span>
#include <vector>

#include "chem/diffusion.hpp"
#include "chem/grid.hpp"

namespace idp::chem {

/// N independent diffusion fields on one grid, advanced in lockstep.
class BatchedDiffusionField {
 public:
  /// Workspace for `lanes` fields on `grid` (node 0 = electrode surface).
  /// Every lane must be configured via configure_lane before stepping.
  BatchedDiffusionField(Grid1D grid, std::size_t lanes);

  /// Set lane `lane`'s per-node base diffusivity profile [m^2/s] and initial
  /// uniform concentration [mol/m^3]; the bulk reservoir value starts at
  /// c_init, mirroring the DiffusionField constructor.
  void configure_lane(std::size_t lane, std::span<const double> diffusivity,
                      double c_init);
  /// Convenience: uniform diffusivity everywhere.
  void configure_lane(std::size_t lane, double diffusivity, double c_init);

  // --- per-lane boundary & source configuration (persist across steps) ----
  void set_far_boundary(std::size_t lane, FarBoundary fb);
  void set_bulk_concentration(std::size_t lane, double c);
  void set_electrode_rate(std::size_t lane, double k_het);
  void set_electrode_injection(std::size_t lane, double flux);
  /// Volumetric source for the *next* step [mol m^-3 s^-1] per node of one
  /// lane; all sources are cleared automatically after each step.
  void set_source(std::size_t lane, std::span<const double> source_per_node);
  /// Reset one lane's profile to a uniform concentration.
  void fill(std::size_t lane, double c);
  /// Uniformly scale lane `lane`'s effective diffusivity (see
  /// DiffusionField::set_diffusivity_scale). Scale 1 restores the exact
  /// constructed coefficients bitwise.
  void set_diffusivity_scale(std::size_t lane, double scale);
  double diffusivity_scale(std::size_t lane) const;

  // --- raw SoA source fast path -------------------------------------------
  /// Mutable node-major source array (`[i*lanes() + lane]`). Kernel-grade
  /// callers (the oxidase reaction loop) write rates for all lanes of a node
  /// directly and then call mark_sources_set() once; equivalent to
  /// set_source per lane but with no per-lane staging buffer.
  std::span<double> source_data() { return source_; }
  void mark_sources_set() { source_set_ = true; }

  // --- time stepping -------------------------------------------------------
  /// Advance every lane by dt seconds in one batched tridiagonal solve.
  /// Per-lane electrode consumption fluxes are available from
  /// electrode_flux() afterwards. Allocation-free.
  void step(double dt);

  // --- observers -----------------------------------------------------------
  /// Electrode consumption flux J = k_het * c(0, t+dt) of the last step().
  double electrode_flux(std::size_t lane) const;
  double at_electrode(std::size_t lane) const { return c_[lane]; }
  double at(std::size_t lane, std::size_t i) const {
    return c_[i * lanes_ + lane];
  }
  std::size_t lanes() const { return lanes_; }
  /// Nodes per lane.
  std::size_t size() const { return grid_.size(); }
  const Grid1D& grid() const { return grid_; }
  /// Integral of lane `lane`'s c over the domain [mol/m^2]; exact FV sum.
  double total_per_area(std::size_t lane) const;

 private:
  void check_lane(std::size_t lane) const;
  void rebuild_face_diffusivity(std::size_t lane);
  /// Assemble every lane's step-invariant band coefficients for dt.
  void assemble_bands(double dt);

  Grid1D grid_;
  std::size_t lanes_;
  std::size_t configured_ = 0;  ///< lanes configured so far (step needs all)

  // per-lane scalar state (indexed by lane)
  std::vector<char> lane_configured_;
  std::vector<FarBoundary> far_;
  std::vector<double> d_scale_, c_bulk_, k_het_, injection_, flux_;

  // node-major / lane-minor SoA arrays (size grid.size() * lanes; d_face_
  // has (grid.size()-1) * lanes interface rows)
  std::vector<double> d_, d_face_, c_, source_;
  bool source_set_ = false;

  // persistent assembly + solve buffers; step() reuses them so steady-state
  // stepping performs zero heap allocations
  std::vector<double> lower_, diag_, upper_, rhs_, scratch_;
  /// Bands assembled for this dt (0 = stale), as in DiffusionField: every
  /// band entry except the electrode row's k_het term depends only on
  /// (dt, per-lane diffusivity and scale, per-lane far boundary).
  double bands_dt_ = 0.0;
  std::vector<double> a01_;  ///< per-lane electrode-row coupling
};

}  // namespace idp::chem
