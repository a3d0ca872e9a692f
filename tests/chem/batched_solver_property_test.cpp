/// \file batched_solver_property_test.cpp
/// Kernel-equivalence property tests for the batched SoA solver stack: at
/// every lane width, the batched Thomas solve, the batched diffusion field
/// and the panel-level oxidase lane batch must be *bitwise* equal, per lane,
/// to their scalar counterparts over randomized systems, grids, boundary
/// conditions and seeds. Bitwise -- not within-tolerance -- because the
/// whole determinism architecture (golden fixtures, replay, sharded merge)
/// rests on lane order never leaking into results.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "bio/library.hpp"
#include "bio/oxidase_batch.hpp"
#include "bio/oxidase_probe.hpp"
#include "chem/batched_diffusion.hpp"
#include "chem/diffusion.hpp"
#include "chem/grid.hpp"
#include "chem/tridiag.hpp"
#include "fault/sensor_state.hpp"
#include "util/random.hpp"

namespace idp {
namespace {

// Five fixed seeds x lane widths {1, 2, 4, hw}; 8 = two AVX registers of
// doubles, the widest batch the panel kernel emits by default. The ragged
// widths {3, 5, 7} are what tail groups of a chunked panel produce.
constexpr std::uint64_t kSeeds[] = {1, 2, 1234, 0xdeadbeefULL, 2026};
constexpr std::size_t kWidths[] = {1, 2, 4, 8};
constexpr std::size_t kRaggedWidths[] = {3, 5, 7};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// EXPECT bit equality with a readable failure message.
void expect_bits_equal(double batched, double scalar, const char* what,
                       std::size_t lane, std::size_t i) {
  EXPECT_EQ(bits(batched), bits(scalar))
      << what << " diverges at lane " << lane << ", element " << i << ": "
      << batched << " vs " << scalar;
}

// ---------------------------------------------------------------------------
// Raw kernel: solve_tridiagonal_batched vs solve_tridiagonal_inplace.
// ---------------------------------------------------------------------------

/// One randomized round: random size, random diagonally dominant bands per
/// lane, batched solve vs per-lane scalar solve, bit-compared.
void check_random_systems(util::Rng& rng, std::size_t w) {
  const std::size_t n = 1 + static_cast<std::size_t>(rng.index(48));
  const std::size_t total = n * w;
  std::vector<double> lower(total), diag(total), upper(total), rhs(total);
  for (std::size_t lane = 0; lane < w; ++lane) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = i * w + lane;
      lower[k] = rng.uniform(-1.0, 1.0);
      upper[k] = rng.uniform(-1.0, 1.0);
      // Strict diagonal dominance keeps every pivot well away from zero.
      diag[k] = 2.0 + rng.uniform(0.0, 2.0) +
                (i > 0 ? std::fabs(lower[k]) : 0.0) +
                (i + 1 < n ? std::fabs(upper[k]) : 0.0);
      rhs[k] = rng.uniform(-2.0, 2.0);
    }
  }

  std::vector<double> scratch(total), out(total);
  chem::solve_tridiagonal_batched(n, w, lower, diag, upper, rhs, scratch, out);

  std::vector<double> s_lower(n), s_diag(n), s_upper(n), s_rhs(n), s_scratch(n),
      s_out(n);
  for (std::size_t lane = 0; lane < w; ++lane) {
    for (std::size_t i = 0; i < n; ++i) {
      s_lower[i] = lower[i * w + lane];
      s_diag[i] = diag[i * w + lane];
      s_upper[i] = upper[i * w + lane];
      s_rhs[i] = rhs[i * w + lane];
    }
    chem::solve_tridiagonal_inplace(s_lower, s_diag, s_upper, s_rhs, s_scratch,
                                    s_out);
    for (std::size_t i = 0; i < n; ++i) {
      expect_bits_equal(out[i * w + lane], s_out[i], "solution", lane, i);
    }
  }
}

TEST(BatchedSolver, RandomSystemsMatchScalarBitwise) {
  for (std::uint64_t seed : kSeeds) {
    util::Rng rng(seed);
    for (std::size_t w : kWidths) {
      for (int round = 0; round < 8; ++round) check_random_systems(rng, w);
    }
  }
}

// A tail group of a chunked panel is just a narrower batch; the kernel must
// be exact at the odd widths too.
TEST(BatchedSolver, RaggedTailWidthsMatchScalarBitwise) {
  for (std::uint64_t seed : kSeeds) {
    util::Rng rng(seed ^ 0x5eedULL);
    for (std::size_t w : kRaggedWidths) {
      for (int round = 0; round < 6; ++round) check_random_systems(rng, w);
    }
  }
}

// rhs/out aliasing is part of the scalar kernel's contract; the batched
// kernel honours it identically (each rhs row element is consumed before
// its out slot is written).
TEST(BatchedSolver, RhsOutAliasingMatchesNonAliased) {
  util::Rng rng(99);
  const std::size_t n = 17, w = 4, total = n * w;
  std::vector<double> lower(total), diag(total), upper(total), rhs(total);
  for (std::size_t k = 0; k < total; ++k) {
    lower[k] = rng.uniform(-1.0, 1.0);
    upper[k] = rng.uniform(-1.0, 1.0);
    diag[k] = 3.0 + rng.uniform(0.0, 1.0);
    rhs[k] = rng.uniform(-2.0, 2.0);
  }
  std::vector<double> scratch(total), out(total);
  chem::solve_tridiagonal_batched(n, w, lower, diag, upper, rhs, scratch, out);

  std::vector<double> aliased = rhs, scratch2(total);
  chem::solve_tridiagonal_batched(n, w, lower, diag, upper, aliased, scratch2,
                                  aliased);
  for (std::size_t k = 0; k < total; ++k) {
    EXPECT_EQ(bits(aliased[k]), bits(out[k])) << "element " << k;
  }
}

// ---------------------------------------------------------------------------
// BatchedDiffusionField vs DiffusionField: random grids, random per-lane
// boundary conditions, diffusivities, fouling scales and step-wise sources.
// ---------------------------------------------------------------------------

chem::Grid1D random_grid(util::Rng& rng) {
  switch (rng.index(3)) {
    case 0: {
      const std::size_t n = 8 + static_cast<std::size_t>(rng.index(32));
      return chem::Grid1D::uniform(100e-6, n);
    }
    case 1:
      return chem::Grid1D::expanding(1.0e-6, 1.1 + rng.uniform(0.0, 0.15),
                                     rng.uniform(40e-6, 120e-6));
    default:
      return chem::Grid1D::membrane_bulk(
          rng.uniform(30e-6, 60e-6), 10 + static_cast<std::size_t>(rng.index(20)),
          1.1 + rng.uniform(0.0, 0.15), rng.uniform(40e-6, 80e-6));
  }
}

void check_random_fields(util::Rng& rng, std::size_t w) {
  const chem::Grid1D grid = random_grid(rng);
  const std::size_t nodes = grid.size();
  chem::BatchedDiffusionField batch(grid, w);
  std::vector<std::unique_ptr<chem::DiffusionField>> scalar;

  for (std::size_t lane = 0; lane < w; ++lane) {
    std::vector<double> d(nodes);
    for (double& v : d) v = rng.uniform(1.0e-10, 2.0e-9);
    const double c_init = rng.uniform(0.0, 2.0);
    const auto far = rng.index(2) == 0 ? chem::FarBoundary::kBulkReservoir
                                       : chem::FarBoundary::kSealed;
    const double bulk = rng.uniform(0.0, 3.0);
    const double k_het = rng.uniform(0.0, 1.0e-4);
    const double injection = rng.uniform(-1.0e-7, 1.0e-6);
    const double scale = rng.index(2) == 0 ? 1.0 : rng.uniform(0.5, 1.5);

    batch.configure_lane(lane, d, c_init);
    batch.set_far_boundary(lane, far);
    batch.set_bulk_concentration(lane, bulk);
    batch.set_electrode_rate(lane, k_het);
    batch.set_electrode_injection(lane, injection);
    batch.set_diffusivity_scale(lane, scale);

    auto field = std::make_unique<chem::DiffusionField>(grid, d, c_init);
    field->set_far_boundary(far);
    field->set_bulk_concentration(bulk);
    field->set_electrode_rate(k_het);
    field->set_electrode_injection(injection);
    field->set_diffusivity_scale(scale);
    scalar.push_back(std::move(field));
  }

  const double dt = 5.0e-3;
  std::vector<double> source(nodes);
  for (int k = 0; k < 20; ++k) {
    // Every third step feeds one random lane a random volumetric source;
    // the clear-after-step contract must behave identically on both paths.
    if (k % 3 == 0) {
      const std::size_t lane = static_cast<std::size_t>(rng.index(w));
      for (double& v : source) v = rng.uniform(-2.0e-4, 5.0e-4);
      batch.set_source(lane, source);
      scalar[lane]->set_source(source);
    }
    batch.step(dt);
    for (std::size_t lane = 0; lane < w; ++lane) {
      const double flux = scalar[lane]->step(dt);
      expect_bits_equal(batch.electrode_flux(lane), flux, "flux", lane, 0);
      for (std::size_t i = 0; i < nodes; ++i) {
        expect_bits_equal(batch.at(lane, i), scalar[lane]->at(i),
                          "concentration", lane, i);
      }
      expect_bits_equal(batch.total_per_area(lane),
                        scalar[lane]->total_per_area(), "total", lane, 0);
    }
  }
}

TEST(BatchedField, MatchesScalarFieldBitwise) {
  for (std::uint64_t seed : kSeeds) {
    util::Rng rng(seed);
    for (std::size_t w : kWidths) check_random_fields(rng, w);
  }
}

// The single-channel batch is the degenerate case the oxidase probe runs on
// every step; call it out by name.
TEST(BatchedField, SingleChannelBatchDegeneratesToScalar) {
  for (std::uint64_t seed : kSeeds) {
    util::Rng rng(seed ^ 0x1ULL);
    check_random_fields(rng, 1);
  }
}

// Both fields assemble their band coefficients once per (dt, scale, far
// boundary). A dt change, a fouling-scale change and a far-boundary switch
// mid-run must each re-assemble them: the cached paths are checked against
// a reference field whose bands are rebuilt before every step (toggling its
// scale away and back forces the re-assembly and restores the exact
// coefficients).
void check_mid_run_changes(util::Rng& rng, std::size_t w) {
  const chem::Grid1D grid = random_grid(rng);
  const std::size_t nodes = grid.size();
  chem::BatchedDiffusionField batch(grid, w);
  std::vector<std::unique_ptr<chem::DiffusionField>> cached, fresh;
  for (std::size_t lane = 0; lane < w; ++lane) {
    std::vector<double> d(nodes);
    for (double& v : d) v = rng.uniform(1.0e-10, 2.0e-9);
    const double c_init = rng.uniform(0.0, 2.0);
    const double k_het = rng.uniform(0.0, 1.0e-4);
    batch.configure_lane(lane, d, c_init);
    batch.set_electrode_rate(lane, k_het);
    for (auto* set : {&cached, &fresh}) {
      auto field = std::make_unique<chem::DiffusionField>(grid, d, c_init);
      field->set_electrode_rate(k_het);
      set->push_back(std::move(field));
    }
  }

  const double dts[] = {5.0e-3, 2.0e-2, 2.0e-2, 5.0e-3};
  for (int k = 0; k < 32; ++k) {
    const double dt = dts[k / 8];
    if (k == 12) {  // fouling sets in on every other lane
      for (std::size_t lane = 0; lane < w; lane += 2) {
        const double scale = rng.uniform(0.4, 0.9);
        batch.set_diffusivity_scale(lane, scale);
        cached[lane]->set_diffusivity_scale(scale);
        fresh[lane]->set_diffusivity_scale(scale);
      }
    }
    if (k == 20) {  // lane 0 becomes a sealed chamber
      batch.set_far_boundary(0, chem::FarBoundary::kSealed);
      cached[0]->set_far_boundary(chem::FarBoundary::kSealed);
      fresh[0]->set_far_boundary(chem::FarBoundary::kSealed);
    }
    batch.step(dt);
    for (std::size_t lane = 0; lane < w; ++lane) {
      const double scale = fresh[lane]->diffusivity_scale();
      fresh[lane]->set_diffusivity_scale(2.0 * scale);
      fresh[lane]->set_diffusivity_scale(scale);
      const double flux = fresh[lane]->step(dt);
      expect_bits_equal(cached[lane]->step(dt), flux, "cached flux", lane, 0);
      expect_bits_equal(batch.electrode_flux(lane), flux, "batched flux", lane,
                        0);
      for (std::size_t i = 0; i < nodes; ++i) {
        expect_bits_equal(cached[lane]->at(i), fresh[lane]->at(i),
                          "cached concentration", lane, i);
        expect_bits_equal(batch.at(lane, i), fresh[lane]->at(i),
                          "batched concentration", lane, i);
      }
    }
  }
}

TEST(BatchedField, MidRunDtScaleAndBoundaryChangesMatchFreshAssembly) {
  for (std::uint64_t seed : kSeeds) {
    util::Rng rng(seed ^ 0xc0ffeeULL);
    for (std::size_t w : kWidths) check_mid_run_changes(rng, w);
  }
}

// ---------------------------------------------------------------------------
// OxidaseLaneBatch vs OxidaseProbe::step, pristine and degraded sensors.
// ---------------------------------------------------------------------------

TEST(OxidaseLaneBatch, MatchesScalarProbeStepBitwise) {
  constexpr bio::TargetId kTargets[] = {
      bio::TargetId::kGlucose, bio::TargetId::kLactate,
      bio::TargetId::kGlutamate};
  fault::SensorState degraded;
  degraded.enzyme_activity = 0.8;
  degraded.membrane_transmission = 0.7;
  degraded.reference_shift_V = 3.0e-3;

  for (std::size_t w : kWidths) {
    std::vector<bio::ProbePtr> owners;
    std::vector<bio::OxidaseProbe*> probes;
    std::vector<const fault::SensorState*> sensors;
    const fault::SensorState pristine{};
    for (std::size_t c = 0; c < w; ++c) {
      const bio::TargetId id = kTargets[c % 3];
      owners.push_back(bio::make_probe(id));
      auto* ox = dynamic_cast<bio::OxidaseProbe*>(owners.back().get());
      ASSERT_NE(ox, nullptr);
      ox->set_bulk_concentration(bio::to_string(id),
                                 0.5 + 0.4 * static_cast<double>(c));
      probes.push_back(ox);
      sensors.push_back(c % 2 == 0 ? &pristine : &degraded);
    }
    bio::OxidaseLaneBatch batch(probes, sensors);

    constexpr double kDt = 5.0e-3;
    constexpr int kSteps = 120;
    std::vector<double> e(w), i_batch(w);
    std::vector<std::vector<double>> currents(w);
    for (int k = 0; k < kSteps; ++k) {
      for (std::size_t c = 0; c < w; ++c) {
        // A slowly ramping potential exercises the Butler-Volmer boundary
        // update at many operating points.
        e[c] = probes[c]->applied_potential() - 0.05 +
               1.0e-3 * static_cast<double>(k);
      }
      batch.step(e, kDt, i_batch);
      for (std::size_t c = 0; c < w; ++c) currents[c].push_back(i_batch[c]);
    }

    for (std::size_t c = 0; c < w; ++c) {
      probes[c]->apply_sensor_state(*sensors[c]);
      probes[c]->reset();
      for (int k = 0; k < kSteps; ++k) {
        const double e_k = probes[c]->applied_potential() - 0.05 +
                           1.0e-3 * static_cast<double>(k);
        const double i_scalar = probes[c]->step(e_k, kDt);
        expect_bits_equal(currents[c][static_cast<std::size_t>(k)], i_scalar,
                          "current", c, static_cast<std::size_t>(k));
      }
    }
  }
}

}  // namespace
}  // namespace idp
