/// \file direct_batch.hpp
/// Lockstep lane batch of W direct-oxidation probes: the bare-electrode
/// feeder of the SoA batched diffusion kernel.
///
/// A direct probe is a SolutionRedoxSystem -- a reduced and an oxidised
/// field on one Nernst-layer grid, exchanging matter through a
/// Butler-Volmer boundary. Every direct design of the library uses the same
/// grid, so a campaign's blanks and sweep points (and any replayed direct
/// reads) solve identical-grid systems each step. DirectLaneBatch packs the
/// W reduced fields into one BatchedDiffusionField and the W oxidised fields
/// into a second one, and replicates SolutionRedoxSystem::step per lane bit
/// for bit: Butler-Volmer rates at the lane's potential, the reduced step
/// with the old oxidised surface concentration as injection, the oxidised
/// step with the reduced flux as injection, and n*F*area*v_net plus the
/// probe's background. The two solves stay separate because the oxidised
/// step consumes the reduced step's flux. Lanes never exchange data, so
/// lane order cannot leak into results.
#pragma once

#include <span>
#include <vector>

#include "bio/direct_probe.hpp"
#include "chem/batched_diffusion.hpp"
#include "chem/redox.hpp"

namespace idp::bio {

/// W direct probes advanced in lockstep through two W-lane SoA solves.
///
/// Construction mirrors the state a probe holds after reset(): both
/// profiles at their configured bulk values. Direct probes have no
/// degradation model (apply_sensor_state is the identity for them), so the
/// batch takes no sensor states; the engine applies reference shift, storms
/// and front-end drift around the kernel as for every lane. The probes
/// themselves are not advanced -- the batch owns its own field state.
class DirectLaneBatch {
 public:
  /// All probes must share node-identical grids (enforced);
  /// `probes.size() >= 1`.
  explicit DirectLaneBatch(std::span<DirectProbe* const> probes);

  /// True when the two probes can share a lane batch: node-identical grids.
  static bool compatible(const DirectProbe& a, const DirectProbe& b) {
    return a.system().grid().nodes() == b.system().grid().nodes();
  }

  /// Advance every probe by dt under its own electrode potential e[p];
  /// writes the current of probe p to i_out[p]. Bitwise identical per probe
  /// to DirectProbe::step(e[p], dt) on a probe in the same state.
  /// Allocation-free.
  void step(std::span<const double> e, double dt, std::span<double> i_out);

  std::size_t width() const { return width_; }
  double red_at_electrode(std::size_t p) const { return red_.at_electrode(p); }
  double ox_at_electrode(std::size_t p) const { return ox_.at_electrode(p); }

 private:
  std::size_t width_;
  chem::BatchedDiffusionField red_;
  chem::BatchedDiffusionField ox_;
  // per-probe state, copied from the probes at construction
  std::vector<chem::RedoxCouple> couples_;
  std::vector<double> nfa_;  ///< n * Faraday * area (scalar leading factors)
  std::vector<double> background_;
};

}  // namespace idp::bio
