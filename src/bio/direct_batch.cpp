/// \file direct_batch.cpp
/// Direct-probe lane batch: W bare electrodes, two SoA solves per step.
/// Every per-lane expression mirrors SolutionRedoxSystem::step and
/// DirectProbe::step op for op; only the storage layout differs.

#include "bio/direct_batch.hpp"

#include "util/constants.hpp"
#include "util/error.hpp"

namespace idp::bio {

namespace {

const chem::Grid1D& first_grid(std::span<DirectProbe* const> probes) {
  util::require(!probes.empty() && probes.front() != nullptr,
                "lane batch needs at least one probe");
  return probes.front()->system().grid();
}

}  // namespace

DirectLaneBatch::DirectLaneBatch(std::span<DirectProbe* const> probes)
    : width_(probes.size()),
      red_(first_grid(probes), probes.size()),
      ox_(first_grid(probes), probes.size()) {
  couples_.reserve(width_);
  nfa_.reserve(width_);
  background_.reserve(width_);
  for (std::size_t p = 0; p < width_; ++p) {
    util::require(probes[p] != nullptr, "lane batch probe is null");
    const DirectProbe& probe = *probes[p];
    util::require(compatible(*probes.front(), probe),
                  "lane batch requires node-identical grids");
    // The post-reset state: both profiles filled with their bulk values.
    const chem::SolutionRedoxConfig& c = probe.system().config();
    red_.configure_lane(p, c.d_red, c.c_red_bulk);
    ox_.configure_lane(p, c.d_ox, c.c_ox_bulk);
    couples_.push_back(c.couple);
    // (n * F) * area: the leading factors of the scalar current product.
    nfa_.push_back(static_cast<double>(c.couple.n) * util::kFaraday * c.area);
    background_.push_back(probe.params().background_current);
  }
}

void DirectLaneBatch::step(std::span<const double> e, double dt,
                           std::span<double> i_out) {
  util::require(e.size() == width_ && i_out.size() == width_,
                "lane batch span size mismatch");

  // Reduced form: consumed at kf, produced from the old oxidised surface
  // concentration at kb.
  for (std::size_t p = 0; p < width_; ++p) {
    const chem::BvRates rates = chem::butler_volmer_rates(couples_[p], e[p]);
    red_.set_electrode_rate(p, rates.kf);
    red_.set_electrode_injection(p, rates.kb * ox_.at_electrode(p));
    ox_.set_electrode_rate(p, rates.kb);
  }
  red_.step(dt);

  // Oxidised form: produced by the reduced flux just solved for.
  for (std::size_t p = 0; p < width_; ++p) {
    ox_.set_electrode_injection(p, red_.electrode_flux(p));
  }
  ox_.step(dt);

  for (std::size_t p = 0; p < width_; ++p) {
    const double v_net = red_.electrode_flux(p) - ox_.electrode_flux(p);
    i_out[p] = nfa_[p] * v_net + background_[p];
  }
}

}  // namespace idp::bio
