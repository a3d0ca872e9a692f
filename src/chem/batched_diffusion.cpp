/// \file batched_diffusion.cpp
/// SoA lane-batched backward-Euler diffusion stepping. Every expression in
/// the assembly mirrors DiffusionField::step op-for-op per lane; only the
/// storage layout (node-major, lane-minor) and the loop structure differ,
/// which is exactly what keeps lane values bitwise identical to the scalar
/// path while letting the compiler vectorize across lanes.

#include "chem/batched_diffusion.hpp"

#include <algorithm>

#include "chem/tridiag.hpp"
#include "util/error.hpp"

namespace idp::chem {

BatchedDiffusionField::BatchedDiffusionField(Grid1D grid, std::size_t lanes)
    : grid_(std::move(grid)), lanes_(lanes) {
  util::require(lanes_ >= 1, "lane count must be >= 1");
  util::require(grid_.size() >= 2, "batched field needs >= 2 nodes");
  const std::size_t n = grid_.size();
  lane_configured_.assign(lanes_, 0);
  far_.assign(lanes_, FarBoundary::kBulkReservoir);
  d_scale_.assign(lanes_, 1.0);
  c_bulk_.assign(lanes_, 0.0);
  k_het_.assign(lanes_, 0.0);
  injection_.assign(lanes_, 0.0);
  flux_.assign(lanes_, 0.0);
  a01_.assign(lanes_, 0.0);
  d_.assign(n * lanes_, 0.0);
  d_face_.assign((n - 1) * lanes_, 0.0);
  c_.assign(n * lanes_, 0.0);
  source_.assign(n * lanes_, 0.0);
  lower_.resize(n * lanes_);
  diag_.resize(n * lanes_);
  upper_.resize(n * lanes_);
  rhs_.resize(n * lanes_);
  scratch_.resize(n * lanes_);
}

void BatchedDiffusionField::check_lane(std::size_t lane) const {
  util::require(lane < lanes_, "lane index out of range");
}

void BatchedDiffusionField::configure_lane(std::size_t lane,
                                           std::span<const double> diffusivity,
                                           double c_init) {
  check_lane(lane);
  util::require(diffusivity.size() == grid_.size(),
                "diffusivity size mismatch");
  for (double d : diffusivity) {
    util::require(d > 0.0, "diffusivity must be positive");
  }
  util::require(c_init >= 0.0, "negative concentration");
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    d_[i * lanes_ + lane] = diffusivity[i];
  }
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    c_[i * lanes_ + lane] = c_init;
  }
  c_bulk_[lane] = c_init;
  d_scale_[lane] = 1.0;
  rebuild_face_diffusivity(lane);
  if (!lane_configured_[lane]) {
    lane_configured_[lane] = 1;
    ++configured_;
  }
}

void BatchedDiffusionField::configure_lane(std::size_t lane, double diffusivity,
                                           double c_init) {
  const std::vector<double> d(grid_.size(), diffusivity);
  configure_lane(lane, d, c_init);
}

void BatchedDiffusionField::rebuild_face_diffusivity(std::size_t lane) {
  // Same harmonic interface mean + scale branch as
  // DiffusionField::rebuild_face_diffusivity (scale 1 reproduces the
  // constructed values bitwise).
  const double scale = d_scale_[lane];
  for (std::size_t i = 0; i + 1 < grid_.size(); ++i) {
    const double di = d_[i * lanes_ + lane];
    const double dj = d_[(i + 1) * lanes_ + lane];
    const double harmonic = 2.0 * di * dj / (di + dj);
    d_face_[i * lanes_ + lane] = scale == 1.0 ? harmonic : scale * harmonic;
  }
  bands_dt_ = 0.0;
}

void BatchedDiffusionField::set_far_boundary(std::size_t lane, FarBoundary fb) {
  check_lane(lane);
  if (fb != far_[lane]) bands_dt_ = 0.0;
  far_[lane] = fb;
}

void BatchedDiffusionField::set_bulk_concentration(std::size_t lane, double c) {
  check_lane(lane);
  util::require(c >= 0.0, "negative concentration");
  c_bulk_[lane] = c;
}

void BatchedDiffusionField::set_electrode_rate(std::size_t lane, double k_het) {
  check_lane(lane);
  util::require(k_het >= 0.0, "negative rate constant");
  k_het_[lane] = k_het;
}

void BatchedDiffusionField::set_electrode_injection(std::size_t lane,
                                                    double flux) {
  check_lane(lane);
  injection_[lane] = flux;
}

void BatchedDiffusionField::set_source(std::size_t lane,
                                       std::span<const double> source_per_node) {
  check_lane(lane);
  util::require(source_per_node.size() == grid_.size(),
                "source size mismatch");
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    source_[i * lanes_ + lane] = source_per_node[i];
  }
  source_set_ = true;
}

void BatchedDiffusionField::fill(std::size_t lane, double c) {
  check_lane(lane);
  util::require(c >= 0.0, "negative concentration");
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    c_[i * lanes_ + lane] = c;
  }
}

void BatchedDiffusionField::set_diffusivity_scale(std::size_t lane,
                                                  double scale) {
  check_lane(lane);
  util::require(scale > 0.0, "diffusivity scale must be positive");
  if (scale == d_scale_[lane]) return;
  d_scale_[lane] = scale;
  rebuild_face_diffusivity(lane);
}

double BatchedDiffusionField::diffusivity_scale(std::size_t lane) const {
  check_lane(lane);
  return d_scale_[lane];
}

double BatchedDiffusionField::electrode_flux(std::size_t lane) const {
  check_lane(lane);
  return flux_[lane];
}

void BatchedDiffusionField::assemble_bands(double dt) {
  const std::size_t n = grid_.size();
  const std::size_t W = lanes_;

  // Node 0 (electrode): half cell with Robin consumption + injection; the
  // k_het part of its diagonal is added per step. The geometric factors are
  // lane-invariant and hoisted; each lane's a01 is the same dt*d_face/(h*w)
  // quotient as the scalar assembly.
  {
    const double h0w0 = grid_.h(0) * grid_.cv(0);
    for (std::size_t l = 0; l < W; ++l) {
      a01_[l] = dt * d_face_[l] / h0w0;
      upper_[l] = -a01_[l];
      lower_[l] = 0.0;
    }
  }

  // Interior nodes.
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const double w = grid_.cv(i);
    const double hlw = grid_.h(i - 1) * w;
    const double huw = grid_.h(i) * w;
    const std::size_t row = i * W;
    const std::size_t face_lo = (i - 1) * W;
    const std::size_t face_hi = i * W;
    for (std::size_t l = 0; l < W; ++l) {
      const double al = dt * d_face_[face_lo + l] / hlw;
      const double au = dt * d_face_[face_hi + l] / huw;
      lower_[row + l] = -al;
      upper_[row + l] = -au;
      diag_[row + l] = 1.0 + al + au;
    }
  }

  // Far boundary, per lane.
  {
    const std::size_t row = (n - 1) * W;
    const double hlw = grid_.h(n - 2) * grid_.cv(n - 1);
    for (std::size_t l = 0; l < W; ++l) {
      if (far_[l] == FarBoundary::kBulkReservoir) {
        lower_[row + l] = 0.0;
        upper_[row + l] = 0.0;
        diag_[row + l] = 1.0;
      } else {  // sealed half cell
        const double al = dt * d_face_[(n - 2) * W + l] / hlw;
        lower_[row + l] = -al;
        upper_[row + l] = 0.0;
        diag_[row + l] = 1.0 + al;
      }
    }
  }
  bands_dt_ = dt;
}

void BatchedDiffusionField::step(double dt) {
  util::require(dt > 0.0, "dt must be positive");
  util::require(configured_ == lanes_, "unconfigured lane in batched step");
  const std::size_t n = grid_.size();
  const std::size_t W = lanes_;
  if (dt != bands_dt_) assemble_bands(dt);

  // Per-step terms: the electrode row's consumption and every right-hand
  // side. The band, concentration, source and per-lane parameter arrays are
  // separately owned vectors that never alias; `ivdep` tells the vectorizer
  // so (it cannot prove it across this many pointers).
  {
    const double w0 = grid_.cv(0);
#pragma GCC ivdep
    for (std::size_t l = 0; l < W; ++l) {
      diag_[l] = 1.0 + a01_[l] + dt * k_het_[l] / w0;
      rhs_[l] = c_[l] + dt * (injection_[l] / w0 + source_[l]);
    }
  }
  {
    const std::size_t interior_end = (n - 1) * W;
#pragma GCC ivdep
    for (std::size_t k = W; k < interior_end; ++k) {
      rhs_[k] = c_[k] + dt * source_[k];
    }
  }
  {
    const std::size_t row = (n - 1) * W;
    for (std::size_t l = 0; l < W; ++l) {
      rhs_[row + l] = far_[l] == FarBoundary::kBulkReservoir
                          ? c_bulk_[l]
                          : c_[row + l] + dt * source_[row + l];
    }
  }

  solve_tridiagonal_batched(n, W, lower_, diag_, upper_, rhs_, scratch_, c_);
  // Same defensive clamp as the scalar path (explicit sink sources can
  // undershoot zero).
  for (double& c : c_) c = std::max(c, 0.0);

  if (source_set_) {
    std::fill(source_.begin(), source_.end(), 0.0);
    source_set_ = false;
  }
  for (std::size_t l = 0; l < W; ++l) {
    flux_[l] = k_het_[l] * c_[l];
  }
}

double BatchedDiffusionField::total_per_area(std::size_t lane) const {
  check_lane(lane);
  double total = 0.0;
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    total += c_[i * lanes_ + lane] * grid_.cv(i);
  }
  return total;
}

}  // namespace idp::chem
