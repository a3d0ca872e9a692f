/// \file diffusion.cpp
/// Implicit finite-volume diffusion solver implementation:
/// backward-Euler matrix assembly and stepping via the Thomas algorithm.

#include "chem/diffusion.hpp"

#include <algorithm>

#include "chem/tridiag.hpp"
#include "util/error.hpp"

namespace idp::chem {

DiffusionField::DiffusionField(Grid1D grid, std::vector<double> diffusivity,
                               double c_init)
    : grid_(std::move(grid)), d_(std::move(diffusivity)) {
  init(c_init);
}

DiffusionField::DiffusionField(Grid1D grid, double diffusivity, double c_init)
    : grid_(std::move(grid)), d_(grid_.size(), diffusivity) {
  init(c_init);
}

void DiffusionField::init(double c_init) {
  util::require(d_.size() == grid_.size(), "diffusivity size mismatch");
  for (double d : d_) util::require(d > 0.0, "diffusivity must be positive");
  util::require(c_init >= 0.0, "negative concentration");
  c_.assign(grid_.size(), c_init);
  c_bulk_ = c_init;
  source_.assign(grid_.size(), 0.0);
  d_face_.resize(grid_.size() - 1);
  rebuild_face_diffusivity();
  const std::size_t n = grid_.size();
  lower_.resize(n);
  diag_.resize(n);
  upper_.resize(n);
  rhs_.resize(n);
  scratch_.resize(n);
}

void DiffusionField::rebuild_face_diffusivity() {
  // Harmonic interface mean of the scaled per-node diffusivities; a uniform
  // scale factors out, so applying it after the mean is exact (and scale 1
  // reproduces the constructed values bitwise).
  for (std::size_t i = 0; i + 1 < grid_.size(); ++i) {
    const double harmonic = 2.0 * d_[i] * d_[i + 1] / (d_[i] + d_[i + 1]);
    d_face_[i] = d_scale_ == 1.0 ? harmonic : d_scale_ * harmonic;
  }
  bands_dt_ = 0.0;
}

void DiffusionField::set_diffusivity_scale(double scale) {
  util::require(scale > 0.0, "diffusivity scale must be positive");
  if (scale == d_scale_) return;
  d_scale_ = scale;
  rebuild_face_diffusivity();
}

void DiffusionField::set_bulk_concentration(double c) {
  util::require(c >= 0.0, "negative concentration");
  c_bulk_ = c;
}

void DiffusionField::set_electrode_rate(double k_het) {
  util::require(k_het >= 0.0, "negative rate constant");
  k_het_ = k_het;
}

void DiffusionField::set_electrode_injection(double flux) {
  injection_ = flux;
}

void DiffusionField::set_source(std::span<const double> source_per_node) {
  util::require(source_per_node.size() == source_.size(),
                "source size mismatch");
  std::copy(source_per_node.begin(), source_per_node.end(), source_.begin());
  source_set_ = true;
}

void DiffusionField::fill(double c) {
  util::require(c >= 0.0, "negative concentration");
  std::fill(c_.begin(), c_.end(), c);
}

void DiffusionField::assemble_bands(double dt) {
  const std::size_t n = grid_.size();

  // Node 0 (electrode): half cell with Robin consumption + injection; the
  // k_het part of its diagonal is added per step.
  {
    const double w0 = grid_.cv(0);
    a01_ = dt * d_face_[0] / (grid_.h(0) * w0);
    upper_[0] = -a01_;
    lower_[0] = 0.0;
  }

  // Interior nodes.
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const double w = grid_.cv(i);
    const double al = dt * d_face_[i - 1] / (grid_.h(i - 1) * w);
    const double au = dt * d_face_[i] / (grid_.h(i) * w);
    lower_[i] = -al;
    upper_[i] = -au;
    diag_[i] = 1.0 + al + au;
  }

  // Far boundary.
  if (far_ == FarBoundary::kBulkReservoir) {
    lower_[n - 1] = 0.0;
    upper_[n - 1] = 0.0;
    diag_[n - 1] = 1.0;
  } else {  // sealed half cell
    const double w = grid_.cv(n - 1);
    const double al = dt * d_face_[n - 2] / (grid_.h(n - 2) * w);
    lower_[n - 1] = -al;
    upper_[n - 1] = 0.0;
    diag_[n - 1] = 1.0 + al;
  }
  bands_dt_ = dt;
}

double DiffusionField::step(double dt) {
  util::require(dt > 0.0, "dt must be positive");
  const std::size_t n = grid_.size();
  if (dt != bands_dt_) assemble_bands(dt);

  // Per-step terms: the electrode row's consumption and every right-hand
  // side.
  const double w0 = grid_.cv(0);
  diag_[0] = 1.0 + a01_ + dt * k_het_ / w0;
  rhs_[0] = c_[0] + dt * (injection_ / w0 + source_[0]);
  for (std::size_t i = 1; i + 1 < n; ++i) {
    rhs_[i] = c_[i] + dt * source_[i];
  }
  rhs_[n - 1] = far_ == FarBoundary::kBulkReservoir
                    ? c_bulk_
                    : c_[n - 1] + dt * source_[n - 1];

  solve_tridiagonal_inplace(lower_, diag_, upper_, rhs_, scratch_, c_);
  // Implicit diffusion keeps concentrations non-negative for non-negative
  // inputs, but explicit sink sources can undershoot; clamp defensively.
  for (double& c : c_) c = std::max(c, 0.0);

  if (source_set_) {
    std::fill(source_.begin(), source_.end(), 0.0);
    source_set_ = false;
  }
  return k_het_ * c_.front();
}

double DiffusionField::total_per_area() const {
  double total = 0.0;
  for (std::size_t i = 0; i < c_.size(); ++i) total += c_[i] * grid_.cv(i);
  return total;
}

std::vector<double> layered_diffusivity(const Grid1D& grid, double d_membrane,
                                        double d_bulk) {
  util::require(d_membrane > 0.0 && d_bulk > 0.0,
                "diffusivities must be positive");
  std::vector<double> d(grid.size(), d_bulk);
  for (std::size_t i = 0; i < grid.membrane_nodes() && i < d.size(); ++i) {
    d[i] = d_membrane;
  }
  return d;
}

}  // namespace idp::chem
