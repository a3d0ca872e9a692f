/// \file direct_lane_batch_test.cpp
/// Kernel-equivalence tests of the direct-probe lane batch: at every width
/// 1..8, with mixed designs and concentrations, DirectLaneBatch must
/// reproduce DirectProbe::step bit for bit under fixed (CA) and swept (CV)
/// potentials, and the engine's lockstep CA path must reproduce
/// run_chronoamperometry_seeded's whole amperogram bit for bit --
/// reference-electrode shift, interference storm and front-end drift
/// included.

#include "bio/direct_batch.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "afe/frontend.hpp"
#include "bio/library.hpp"
#include "sim/engine.hpp"
#include "util/random.hpp"

namespace idp::bio {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every directly electroactive target of the library.
std::vector<TargetId> direct_targets() {
  std::vector<TargetId> targets;
  for (int t = 0; t < kTargetCount; ++t) {
    const auto id = static_cast<TargetId>(t);
    if (spec(id).family == ProbeFamily::kDirectOxidation) targets.push_back(id);
  }
  return targets;
}

/// W probes cycling through the direct designs, each at its own
/// concentration inside its target's linear range (lane 0 is a blank).
struct Lanes {
  std::vector<ProbePtr> owners;
  std::vector<DirectProbe*> probes;
};

Lanes make_lanes(std::size_t w, util::Rng& rng) {
  const std::vector<TargetId> targets = direct_targets();
  Lanes lanes;
  for (std::size_t p = 0; p < w; ++p) {
    const TargetId id = targets[p % targets.size()];
    const TargetSpec& s = spec(id);
    lanes.owners.push_back(make_probe(id));
    const double level = p == 0 ? 0.0 : rng.uniform(0.0, 1.0);
    lanes.owners.back()->set_bulk_concentration(
        to_string(id), level * s.linear_hi_mM);
    lanes.owners.back()->reset();
    lanes.probes.push_back(
        dynamic_cast<DirectProbe*>(lanes.owners.back().get()));
  }
  return lanes;
}

TEST(DirectLaneBatch, EveryDesignSharesTheGrid) {
  const std::vector<TargetId> targets = direct_targets();
  ASSERT_GE(targets.size(), 2u);  // dopamine and etoposide
  const ProbePtr first = make_probe(targets.front());
  for (const TargetId id : targets) {
    const ProbePtr probe = make_probe(id);
    auto* direct = dynamic_cast<DirectProbe*>(probe.get());
    ASSERT_NE(direct, nullptr) << to_string(id);
    EXPECT_TRUE(DirectLaneBatch::compatible(
        *dynamic_cast<DirectProbe*>(first.get()), *direct));
  }
}

/// Per-lane potential programme of one step: a fixed potential at the
/// probe's operating point (CA) or a triangle sweep across the couple's
/// wave (CV), each lane at its own offset.
double potential(bool sweep, const DirectProbe& probe, double offset, int k,
                 int steps) {
  if (!sweep) return probe.applied_potential() + offset;
  const int half = steps / 2;
  const int leg = k < half ? k : 2 * half - k;
  return probe.params().couple.e0 - 0.3 + offset +
         0.6 * static_cast<double>(leg) / static_cast<double>(half);
}

TEST(DirectLaneBatch, MatchesScalarProbeStepBitwise) {
  util::Rng rng(2011);
  constexpr double kDt = 5.0e-3;
  constexpr int kSteps = 800;
  for (const bool sweep : {false, true}) {
    for (std::size_t w = 1; w <= 8; ++w) {
      Lanes lanes = make_lanes(w, rng);
      DirectLaneBatch batch(lanes.probes);
      EXPECT_EQ(batch.width(), w);
      std::vector<double> offsets(w);
      for (double& o : offsets) o = rng.uniform(-0.02, 0.02);

      std::vector<double> e(w), i_batch(w);
      std::vector<std::vector<double>> currents(w);
      for (int k = 0; k < kSteps; ++k) {
        for (std::size_t p = 0; p < w; ++p) {
          e[p] = potential(sweep, *lanes.probes[p], offsets[p], k, kSteps);
        }
        batch.step(e, kDt, i_batch);
        for (std::size_t p = 0; p < w; ++p) currents[p].push_back(i_batch[p]);
      }

      for (std::size_t p = 0; p < w; ++p) {
        DirectProbe& probe = *lanes.probes[p];
        for (int k = 0; k < kSteps; ++k) {
          const double i_scalar =
              probe.step(potential(sweep, probe, offsets[p], k, kSteps), kDt);
          ASSERT_EQ(bits(currents[p][static_cast<std::size_t>(k)]),
                    bits(i_scalar))
              << (sweep ? "CV" : "CA") << ", width " << w << ", probe " << p
              << " (" << probe.name() << "), step " << k;
        }
        EXPECT_EQ(bits(batch.red_at_electrode(p)),
                  bits(probe.system().red_at_electrode()));
        EXPECT_EQ(bits(batch.ox_at_electrode(p)),
                  bits(probe.system().ox_at_electrode()));
      }
    }
  }
}

TEST(DirectLaneBatch, RejectsMismatchedSpans) {
  util::Rng rng(5);
  Lanes lanes = make_lanes(2, rng);
  DirectLaneBatch batch(lanes.probes);
  std::vector<double> e(3, 0.5), i(3);
  EXPECT_THROW(batch.step(e, 5.0e-3, i), std::invalid_argument);
  EXPECT_THROW(DirectLaneBatch(std::span<DirectProbe* const>{}),
               std::invalid_argument);
}

TEST(DirectLaneBatch, EngineLanesReproduceSeededAmperogramsBitwise) {
  auto frontend_config = [](std::uint64_t seed) {
    afe::AfeConfig c;
    c.tia = afe::lab_grade_tia();
    c.adc = afe::AdcSpec{.bits = 16, .v_low = -10.0, .v_high = 10.0,
                         .sample_rate = 10.0};
    c.seed = seed;
    return c;
  };
  sim::ChronoamperometryProtocol protocol;
  protocol.duration = 2.0;

  util::Rng rng(78);
  for (std::size_t w = 1; w <= 8; ++w) {
    sim::EngineConfig config;
    config.seed = 4242 + w;
    config.batch_lanes = w;  // one lockstep job of exactly w lanes
    const sim::MeasurementEngine engine(config);

    Lanes lanes = make_lanes(w, rng);
    std::vector<std::unique_ptr<afe::AnalogFrontEnd>> frontends;
    std::vector<sim::Measurement> measurements;
    for (std::size_t p = 0; p < w; ++p) {
      // Every other lane is aged: shifted reference, an interference
      // storm and a drifted front end.
      fault::SensorState sensor;
      if (p % 2 == 1) {
        sensor.reference_shift_V = rng.uniform(-0.05, 0.05);
        sensor.storm_current_A = rng.uniform(0.0, 2.0e-9);
        sensor.storm_noise_mult = rng.uniform(1.0, 3.0);
        sensor.afe_gain = rng.uniform(0.97, 1.03);
        sensor.afe_offset_A = rng.uniform(-1.0e-10, 1.0e-10);
      }
      frontends.push_back(
          std::make_unique<afe::AnalogFrontEnd>(frontend_config(100 + p)));
      // Each lane at its own potential: the kernel takes per-lane e.
      protocol.potential = lanes.probes[p]->applied_potential();
      measurements.push_back(sim::Measurement{
          1000 + 7 * p, sim::Channel{lanes.probes[p], nullptr, sensor},
          protocol, frontends.back().get()});
    }
    std::vector<sim::Trace> batched(w);
    engine.run_measurements(measurements, 1,
                            [&](std::size_t i, sim::MeasurementResult&& r) {
                              EXPECT_TRUE(r.voltammogram.empty());
                              batched[i] = std::move(r.amperogram);
                            });

    for (std::size_t p = 0; p < w; ++p) {
      afe::AnalogFrontEnd fe(frontend_config(100 + p));
      const sim::Trace scalar = engine.run_chronoamperometry_seeded(
          measurements[p].run_id, measurements[p].channel,
          std::get<sim::ChronoamperometryProtocol>(measurements[p].protocol),
          fe);
      ASSERT_EQ(batched[p].size(), scalar.size());
      for (std::size_t i = 0; i < scalar.size(); ++i) {
        ASSERT_EQ(bits(batched[p].time()[i]), bits(scalar.time()[i]));
        ASSERT_EQ(bits(batched[p].value()[i]), bits(scalar.value()[i]))
            << "width " << w << ", lane " << p << ", sample " << i;
      }
    }
  }
}

}  // namespace
}  // namespace idp::bio
