/// \file cyp_lane_batch_test.cpp
/// Kernel-equivalence tests of the CYP lane batch: at every width 1..8,
/// with lanes in permuted order, aged sensors and every CYP design of the
/// library (each Table II drug, the cholesterol CYP11A1 film and the
/// dual-target CYP2B4 benzphetamine + aminopyrine film), CypLaneBatch must
/// reproduce CypProbe::step bit for bit, and the engine's lockstep CV path
/// must reproduce run_cyclic_voltammetry_seeded's whole curve bit for bit
/// -- reference-electrode shift, interference storm, front-end drift and
/// the electrode's charging current included.

#include "bio/cyp_batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "afe/frontend.hpp"
#include "bio/library.hpp"
#include "chem/electrode.hpp"
#include "sim/engine.hpp"
#include "util/random.hpp"

namespace idp::bio {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every CYP design the library builds: one probe per CYP-sensed target
/// plus the dual-target film.
struct Design {
  std::vector<TargetId> targets;
};

std::vector<Design> cyp_designs() {
  std::vector<Design> designs;
  for (int t = 0; t < kTargetCount; ++t) {
    const auto id = static_cast<TargetId>(t);
    if (spec(id).family == ProbeFamily::kCytochromeP450) {
      designs.push_back({{id}});
    }
  }
  designs.push_back({{TargetId::kBenzphetamine, TargetId::kAminopyrine}});
  return designs;
}

ProbePtr build(const Design& design, double level) {
  ProbePtr probe = design.targets.size() == 1
                       ? make_probe(design.targets.front())
                       : make_cyp_probe(design.targets);
  for (std::size_t k = 0; k < design.targets.size(); ++k) {
    // Somewhere inside each target's linear range, distinct per lane.
    const TargetSpec& s = spec(design.targets[k]);
    probe->set_bulk_concentration(
        to_string(design.targets[k]),
        s.linear_lo_mM + level * (s.linear_hi_mM - s.linear_lo_mM));
  }
  return probe;
}

/// An aged sensor: denatured heme, fouled film, shifted reference, an
/// interference storm and drifted front-end gain/offset.
fault::SensorState aged_sensor(util::Rng& rng) {
  fault::SensorState s;
  s.age_days = rng.uniform(1.0, 20.0);
  s.enzyme_activity = rng.uniform(0.55, 0.95);
  s.membrane_transmission = rng.uniform(0.5, 0.9);
  s.reference_shift_V = rng.uniform(-8.0e-3, 8.0e-3);
  s.storm_current_A = rng.uniform(0.0, 2.0e-9);
  s.storm_noise_mult = rng.uniform(1.0, 3.0);
  s.afe_gain = rng.uniform(0.97, 1.03);
  s.afe_offset_A = rng.uniform(-1.0e-10, 1.0e-10);
  return s;
}

/// W lanes drawn from the designs in a permuted order.
struct Lanes {
  std::vector<ProbePtr> owners;
  std::vector<CypProbe*> probes;
  std::vector<fault::SensorState> sensors;
};

Lanes make_lanes(std::size_t w, util::Rng& rng) {
  const std::vector<Design> designs = cyp_designs();
  std::vector<std::size_t> order(designs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.index(i)]);
  }
  Lanes lanes;
  for (std::size_t p = 0; p < w; ++p) {
    lanes.owners.push_back(
        build(designs[order[p % order.size()]], rng.uniform(0.1, 0.9)));
    lanes.probes.push_back(dynamic_cast<CypProbe*>(lanes.owners.back().get()));
    lanes.sensors.push_back(aged_sensor(rng));
  }
  return lanes;
}

TEST(CypLaneBatch, EveryDesignSharesTheDrugGrid) {
  const std::vector<Design> designs = cyp_designs();
  ASSERT_GE(designs.size(), 12u);  // 11 single-target films + CYP2B4 dual
  const ProbePtr first = build(designs.front(), 0.5);
  for (const Design& design : designs) {
    const ProbePtr probe = build(design, 0.5);
    auto* cyp = dynamic_cast<CypProbe*>(probe.get());
    ASSERT_NE(cyp, nullptr);
    EXPECT_TRUE(CypLaneBatch::compatible(
        *dynamic_cast<CypProbe*>(first.get()), *cyp));
  }
}

TEST(CypLaneBatch, MatchesScalarProbeStepBitwise) {
  util::Rng rng(2011);
  for (std::size_t w = 1; w <= 8; ++w) {
    Lanes lanes = make_lanes(w, rng);
    std::vector<const fault::SensorState*> sensors;
    for (const fault::SensorState& s : lanes.sensors) sensors.push_back(&s);
    CypLaneBatch batch(lanes.probes, sensors);
    std::size_t expected_lanes = 0;
    for (const CypProbe* p : lanes.probes) expected_lanes += p->target_count();
    EXPECT_EQ(batch.lanes(), expected_lanes);

    // A cathodic sweep through every Table II wave, each probe at its own
    // offset (lanes see different potentials, as with per-lane iR drop).
    constexpr double kDt = 5.0e-3;
    constexpr int kSteps = 900;
    std::vector<double> offsets(w);
    for (double& o : offsets) o = rng.uniform(-0.02, 0.02);
    auto potential = [&](std::size_t p, int k) {
      return 0.1 + offsets[p] - 1.0e-3 * static_cast<double>(k);
    };
    std::vector<double> e(w), i_batch(w);
    std::vector<std::vector<double>> currents(w);
    for (int k = 0; k < kSteps; ++k) {
      for (std::size_t p = 0; p < w; ++p) e[p] = potential(p, k);
      batch.step(e, kDt, i_batch);
      for (std::size_t p = 0; p < w; ++p) currents[p].push_back(i_batch[p]);
    }

    for (std::size_t p = 0; p < w; ++p) {
      CypProbe& probe = *lanes.probes[p];
      probe.apply_sensor_state(lanes.sensors[p]);
      probe.reset();
      for (int k = 0; k < kSteps; ++k) {
        const double i_scalar = probe.step(potential(p, k), kDt);
        ASSERT_EQ(bits(currents[p][static_cast<std::size_t>(k)]),
                  bits(i_scalar))
            << "width " << w << ", probe " << p << " (" << probe.name()
            << "), step " << k;
      }
      for (std::size_t t = 0; t < probe.target_count(); ++t) {
        EXPECT_EQ(bits(batch.reduced_fraction(p, t)),
                  bits(probe.reduced_fraction(t)));
      }
    }
  }
}

TEST(CypLaneBatch, EngineLanesReproduceSeededVoltammogramsBitwise) {
  const chem::Electrode electrode(chem::ElectrodeRole::kWorking,
                                  chem::ElectrodeMaterial::kGold,
                                  chem::ElectrodeGeometry{0.23e-6},
                                  chem::Nanostructure::kCarbonNanotube);
  sim::CyclicVoltammetryProtocol protocol;
  protocol.e_start = 0.1;
  protocol.e_vertex = -0.5;
  protocol.scan_rate = 0.05;
  auto frontend_config = [](std::uint64_t seed) {
    afe::AfeConfig c;
    c.tia = afe::lab_grade_tia();
    c.adc = afe::AdcSpec{.bits = 16, .v_low = -10.0, .v_high = 10.0,
                         .sample_rate = 10.0};
    c.seed = seed;
    return c;
  };

  util::Rng rng(78);
  for (std::size_t w = 1; w <= 8; ++w) {
    sim::EngineConfig config;
    config.seed = 4242 + w;
    config.batch_lanes = w;  // one lockstep job of exactly w lanes
    ASSERT_EQ(sim::lane_jobs_per_group(std::vector<std::size_t>{w}, 0, 1, w),
              std::vector<std::size_t>{w < 2 ? 0u : 1u});
    const sim::MeasurementEngine engine(config);

    Lanes lanes = make_lanes(w, rng);
    std::vector<std::unique_ptr<afe::AnalogFrontEnd>> frontends;
    std::vector<sim::Measurement> measurements;
    for (std::size_t p = 0; p < w; ++p) {
      frontends.push_back(
          std::make_unique<afe::AnalogFrontEnd>(frontend_config(100 + p)));
      // Half the lanes carry a physical electrode (charging current).
      const chem::Electrode* we = p % 2 == 0 ? &electrode : nullptr;
      measurements.push_back(sim::Measurement{
          1000 + 7 * p, sim::Channel{lanes.probes[p], we, lanes.sensors[p]},
          protocol, frontends.back().get()});
    }
    std::vector<sim::CvCurve> batched(w);
    engine.run_measurements(measurements, 1,
                            [&](std::size_t i, sim::MeasurementResult&& r) {
                              EXPECT_TRUE(r.amperogram.empty());
                              batched[i] = std::move(r.voltammogram);
                            });

    for (std::size_t p = 0; p < w; ++p) {
      afe::AnalogFrontEnd fe(frontend_config(100 + p));
      const sim::CvCurve scalar = engine.run_cyclic_voltammetry_seeded(
          measurements[p].run_id, measurements[p].channel, protocol, fe);
      ASSERT_EQ(batched[p].size(), scalar.size());
      for (std::size_t i = 0; i < scalar.size(); ++i) {
        ASSERT_EQ(bits(batched[p].time()[i]), bits(scalar.time()[i]));
        ASSERT_EQ(bits(batched[p].potential()[i]), bits(scalar.potential()[i]));
        ASSERT_EQ(bits(batched[p].current()[i]), bits(scalar.current()[i]))
            << "width " << w << ", lane " << p << ", sample " << i;
      }
    }
  }
}

}  // namespace
}  // namespace idp::bio
